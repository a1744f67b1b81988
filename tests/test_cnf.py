"""CNF encoder tests: structure, equivalence with the direct evaluator,
and DIMACS round-trips.

The equivalence oracle enumerates every assignment of register values to
positions and checks that the formula is satisfiable under that projection
exactly when the constraint evaluator accepts it.  Auxiliary variables are
functionally determined by the position bits, so unit propagation completes
(or refutes) each projection without search.
"""

import hashlib
import itertools
import random

import pytest

import cnf_reference
from conftest import (
    cnf_projection_status,
    encoded_fixture,
    machine_trace,
    synthetic_trace,
)
from fsmrecon.capture import (
    BlackBoxDevice,
    choose_vector_count,
    gen_stimulus,
    run_trace,
)
from fsmrecon.channel import NoiseModel
from fsmrecon.cnf import (
    Cnf,
    decode_positions,
    encode_cnf,
    parse_dimacs,
    to_dimacs,
    variable_map_text,
)
from fsmrecon.constraints import (
    ConstraintSet,
    build_constraints,
    find_violation,
    forced_width,
)
from fsmrecon.sat import SAT, UNSAT, solve_cnf


def exhaustive_check(cs: ConstraintSet) -> None:
    """Assert CNF-satisfiability == evaluator verdict on every projection."""
    cnf = encode_cnf(cs)
    n = cs.n_positions
    for values in itertools.product(range(1 << cs.width), repeat=n):
        status = cnf_projection_status(cnf, list(values))
        assert status in ("sat", "conflict"), f"propagation stuck on {values}"
        expected = find_violation(cs, list(values)) is None
        assert (status == "sat") == expected, (
            f"values={values} evaluator={expected} cnf={status}"
        )


def cset(width, groups, windows=None):
    """A hand-built set: output group per position, then one window per
    step, vacuous (0, width) when none are given."""
    if windows is None:
        windows = [(0, width)] * (len(groups) - 1)
    return ConstraintSet(width=width, windows=list(windows), groups=list(groups))


# --------------------------------------------------------------- structure


def test_position_variables_are_contiguous_msb_first():
    cs = cset(3, [0, 1])
    cnf = encode_cnf(cs)
    assert [[cnf.var(p, b) for b in range(3)] for p in range(2)] == [
        [1, 2, 3],
        [4, 5, 6],
    ]
    # the vacuous window's three difference variables follow, then the
    # ownership table: e[p][c] for 2 positions and owner[g][c] for 2
    # groups, over 8 codes each (two groups need no chain variable)
    assert cnf.n_vars == 6 + 3 + 2 * 8 + 2 * 8


def test_identical_emits_two_equivalence_clauses_per_bit():
    cs = cset(4, [0, 0], [(0, 0)])
    cnf = encode_cnf(cs)
    assert len(cnf.clauses) == 8
    assert [-1, 5] in cnf.clauses and [1, -5] in cnf.clauses
    assert cnf.n_vars == 8  # no auxiliaries


def test_distinct_emits_the_code_ownership_table():
    cs = cset(2, [0, 1])
    cnf = encode_cnf(cs)
    # the vacuous window's difference variables 5 and 6 come first: their
    # XOR definitions, and no counter
    assert cnf.clauses[:8] == [
        [-5, 1, 3], [-5, -1, -3], [5, -1, 3], [5, 1, -3],
        [-6, 2, 4], [-6, -2, -4], [6, -2, 4], [6, 2, -4],
    ]
    # then e[p][c] = 7 + 4p + c, "position p holds code c", and
    # owner[g][c] = 15 + 4g + c, "output group g owns code c": per
    # position and code, e implies each bit, the bits imply e, and e
    # implies its group's owner
    assert cnf.clauses[8:] == [
        [-7, -1], [-7, -2], [7, 1, 2], [-7, 15],  # p0 holds 00
        [-8, -1], [-8, 2], [8, 1, -2], [-8, 16],  # p0 holds 01
        [-9, 1], [-9, -2], [9, -1, 2], [-9, 17],  # p0 holds 10
        [-10, 1], [-10, 2], [10, -1, -2], [-10, 18],  # p0 holds 11
        [-11, -3], [-11, -4], [11, 3, 4], [-11, 19],  # p1 holds 00
        [-12, -3], [-12, 4], [12, 3, -4], [-12, 20],  # p1 holds 01
        [-13, 3], [-13, -4], [13, -3, 4], [-13, 21],  # p1 holds 10
        [-14, 3], [-14, 4], [14, -3, -4], [-14, 22],  # p1 holds 11
        # an owner needs a member holding the code
        [-15, 7], [-16, 8], [-17, 9], [-18, 10],
        [-19, 11], [-20, 12], [-21, 13], [-22, 14],
        # at most one owner per code: with two groups, one binary clause
        [-19, -15], [-20, -16], [-21, -17], [-22, -18],
    ]
    assert cnf.n_vars == 22


def test_ownership_chain_defines_one_prefix_per_inner_group():
    # three groups at width 1: per code, s = owner[0] OR owner[1] is the
    # one chain variable, and owner[1] and owner[2] each clash with the
    # prefix before them; variables 4 and 5 are the vacuous windows'
    # difference variables, and e[p][c] is 6 + 2p + c
    cnf = encode_cnf(cset(1, [0, 1, 2]))
    owner = {(g, c): 12 + 2 * g + c for g in range(3) for c in range(2)}
    chain = cnf.clauses[-10:]
    assert chain[:5] == [
        [-owner[1, 0], -owner[0, 0]],
        [-owner[0, 0], 18], [-owner[1, 0], 18], [-18, owner[0, 0], owner[1, 0]],
        [-owner[2, 0], -18],
    ]
    assert chain[5:] == [
        [-owner[1, 1], -owner[0, 1]],
        [-owner[0, 1], 19], [-owner[1, 1], 19], [-19, owner[0, 1], owner[1, 1]],
        [-owner[2, 1], -19],
    ]
    assert cnf.n_vars == 19
    assert solve_cnf(cnf.n_vars, cnf.clauses).status == UNSAT  # 3 groups, 2 codes


def test_one_output_group_encodes_no_table():
    cnf = encode_cnf(cset(2, [4, 4, 4], [(0, 0), (1, 1)]))
    # the zero window's 4 clauses, then the other window's difference
    # variables and counter; nothing past them
    assert cnf.n_vars == 6 + 2 + 2
    assert max(abs(lit) for c in cnf.clauses for lit in c) == cnf.n_vars


def test_window_defines_its_difference_variables_once():
    cs = cset(2, [0, 1], [(1, 2)])
    cnf = encode_cnf(cs)
    # the step's difference variables 5 and 6 are defined once, for its
    # window; the ownership table reads the position bits, not them
    for d, (xi, xj) in ((5, (1, 3)), (6, (2, 4))):
        assert sum(1 for c in cnf.clauses if c == [-d, xi, xj]) == 1
    defined = {
        -c[0] for c in cnf.clauses
        if len(c) == 3 and c[0] < 0 and 0 < c[1] <= 4 and 0 < c[2] <= 4
    }
    assert defined == {5, 6}
    # with one output group the set has no table, so its clauses are the
    # window's alone
    window = encode_cnf(cset(2, [0, 0], [(1, 2)])).clauses
    assert cnf.clauses[:len(window)] == window
    assert not any(
        abs(lit) in (5, 6) for c in cnf.clauses[len(window):] for lit in c
    )


def test_infeasible_window_emits_empty_clause():
    cs = cset(1, [0, 0], [(2, 1)])
    assert cs.trivially_unsat
    cnf = encode_cnf(cs)
    assert [] in cnf.clauses


@pytest.mark.parametrize(
    "cs",
    [
        ConstraintSet(3, [(4, 5)], [0, 0]),
        ConstraintSet(1, [(2, 3)], [0, 1]),
    ],
    ids=["one group", "two groups"],
)
def test_window_floor_past_the_width_is_unsatisfiable(cs):
    # lo <= hi, so no window is empty, but no width-bit distance reaches lo
    assert not cs.trivially_unsat
    for values in itertools.product(range(1 << cs.width), repeat=cs.n_positions):
        assert find_violation(cs, list(values)) is not None
    cnf = encode_cnf(cs)
    assert solve_cnf(cnf.n_vars, cnf.clauses).status == UNSAT


def test_no_empty_clause_otherwise():
    trace = synthetic_trace(["0", "1", "1", "0"], [1, 0, 2], input_bits=2)
    cs = build_constraints(trace, width=2)
    assert not cs.trivially_unsat
    cnf = encode_cnf(cs)
    assert all(clause for clause in cnf.clauses)


def test_decode_positions_reads_msb_first():
    cs = cset(2, [0, 1])
    cnf = encode_cnf(cs)
    model = [0] * (cnf.n_vars + 1)
    # position 0 = 0b10, position 1 = 0b01
    model[1], model[2], model[3], model[4] = 1, -1, -1, 1
    for d in (5, 6):  # pair (0, 1)'s difference variables
        model[d] = 1
    assert decode_positions(cnf, model) == [2, 1]


# ------------------------------------------------------------- equivalence


@pytest.mark.parametrize(
    "width,lo,hi",
    [
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 2),
        (2, 1, 2),
        (3, 1, 2),
        (3, 2, 3),
        (3, 3, 3),
        (3, 1, 3),
        (1, 0, 0),
        (2, 0, 0),
        (3, 0, 0),
        (2, 0, 1),
        (3, 0, 2),
    ],
)
def test_single_window_matches_evaluator(width, lo, hi):
    exhaustive_check(cset(width, [0, 0], [(lo, hi)]))


def test_window_with_slack_upper_bound_matches_evaluator():
    # hi == width means the at-most side is vacuous
    exhaustive_check(cset(2, [0, 1], [(1, 2)]))


def test_identity_chain_matches_evaluator():
    exhaustive_check(cset(2, [0, 0, 1], [(0, 0), (0, 0)]))


def test_three_position_mixed_chain_matches_evaluator():
    exhaustive_check(
        cset(2, [0, 1, 1], [(1, 2), (0, 0)])
    )


def test_four_position_trace_constraints_match_evaluator():
    trace = synthetic_trace(["00", "01", "01", "10"], [1, 0, 2], input_bits=1)
    cs = build_constraints(trace, width=2)
    exhaustive_check(cs)


def test_trivially_unsat_projections_all_conflict():
    cs = cset(1, [0, 0], [(2, 1)])
    cnf = encode_cnf(cs)
    for values in itertools.product(range(2), repeat=2):
        assert cnf_projection_status(cnf, list(values)) == "conflict"


def test_randomized_constraint_sets_match_evaluator():
    rng = random.Random(424_242)
    for _ in range(60):
        width = rng.randint(1, 3)
        n = rng.randint(2, 4)
        windows = []
        for _ in range(n - 1):
            kind = rng.randrange(3)
            if kind == 0:
                windows.append((0, 0))
            else:
                center = rng.randint(1, width + 1)
                lo = max(1, center - 1)
                hi = min(width, center + 1)
                windows.append((lo, hi) if lo <= hi else (0, width))
        n_groups = rng.randint(1, n)
        groups = [rng.randrange(n_groups) for _ in range(n)]
        exhaustive_check(cset(width, groups, windows))


# ------------------------------------------------ pair-expansion reference

# Width the distinct outputs of each machine's 30-step walk (seed 3)
# force, under either channel: ceil(log2(distinct outputs)), at least 1.
PINNED_WIDTH = {
    "bbtas": 2, "dk27": 2, "lion": 1, "mc": 2,
    "opus": 4, "s386": 4, "shiftreg": 1, "train4": 1,
}


def assert_agrees_with_pair_expansion(cs: ConstraintSet) -> str:
    """Both encodings are satisfiable alike, and the ownership table's
    model decodes to values the independent checker accepts; returns the
    status."""
    cnf = encode_cnf(cs)
    ref = cnf_reference.encode_cnf(cs)
    got = solve_cnf(cnf.n_vars, cnf.clauses)
    assert got.status == solve_cnf(ref.n_vars, ref.clauses).status
    if got.status == SAT:
        assert find_violation(cs, decode_positions(cnf, got.model)) is None
    return got.status


@pytest.mark.parametrize("name", sorted(PINNED_WIDTH))
@pytest.mark.parametrize("kind", ["exact", "table3"])
def test_ownership_table_agrees_with_pair_expansion_on_pinned_walks(name, kind):
    _, trace = machine_trace(name, 30, 3, NoiseModel(kind=kind))
    r0 = forced_width(trace)
    for width in range(r0, r0 + 3):
        assert_agrees_with_pair_expansion(build_constraints(trace, width))


def test_ownership_table_agrees_with_pair_expansion_on_random_sets():
    rng = random.Random(20_240_24)
    statuses = set()
    for _ in range(150):
        width = rng.randint(1, 3)
        n = rng.randint(2, 12)
        windows = []
        for _ in range(n - 1):
            if rng.random() < 0.3:
                windows.append((0, 0))
            else:
                lo = rng.randint(0, width)
                windows.append((lo, rng.randint(max(lo, 1), width)))
        n_groups = rng.randint(1, 4)
        groups = [rng.randrange(n_groups) for _ in range(n)]
        statuses.add(
            assert_agrees_with_pair_expansion(cset(width, groups, windows))
        )
    assert statuses == {SAT, UNSAT}


# ----------------------------------------------------------------- growth


def alternating_clauses(encode, n_positions: int) -> int:
    return len(encode(cset(2, [p % 2 for p in range(n_positions)])).clauses)


def test_clauses_grow_linearly_in_positions():
    grown = alternating_clauses(encode_cnf, 200) / alternating_clauses(
        encode_cnf, 100
    )
    assert grown <= 2.1
    # the pair expansion adds a clause per differing pair, so it grows
    # about fourfold
    ref = cnf_reference.encode_cnf
    assert alternating_clauses(ref, 200) / alternating_clauses(ref, 100) > 3


def test_opus_gaussian_round_encodes_under_400k_clauses():
    # round 0 of ``attack --target opus --noise gaussian --sigma 30
    # --seed 1``, default vectors: the forced width 4 cannot carry one of
    # its windows, and the phase seed fails at width 5, where the pair
    # expansion encoded 3,864,786 clauses
    enc = encoded_fixture("opus")
    machine = enc.machine
    device = BlackBoxDevice(enc, NoiseModel.gaussian(30.0), noise_seed=1)
    round_seed = random.Random(1).getrandbits(32)
    vectors = choose_vector_count(machine.state_count, machine.input_bits)
    stimulus = gen_stimulus(vectors, machine.input_bits, round_seed)
    trace = run_trace(device, stimulus, seed=round_seed)
    assert build_constraints(trace, forced_width(trace)).trivially_unsat
    cs = build_constraints(trace, forced_width(trace) + 1)
    assert (cs.width, cs.n_positions) == (5, 641)
    assert not cs.trivially_unsat
    assert len(encode_cnf(cs).clauses) < 400_000


# ---------------------------------------------------------------- pinned

# sha256 of the DIMACS text for that walk on each bundled machine, at
# PINNED_WIDTH and one wider.  Recorded from the encoder whose
# distinctness is a code-ownership table; any change to variable
# numbering or clause order changes solver runs and must show up here.
PINNED_DIMACS_SHA256 = {
    ("bbtas", "exact", 0): "1733606b5fd8856ca018d048b694210ed7f03d3be11313726b9edde2ac640d32",
    ("bbtas", "exact", 1): "9fc9a963a1cce9ea700b7c434ab7591e4323259a7ba9b2fa98750e725eed7872",
    ("bbtas", "table3", 0): "45ed7e2c16afb0be9a2b01d2e538a7cbe3f9b406c7126144a3bf4d40a89b6657",
    ("bbtas", "table3", 1): "915770052f1288672baf0197265271e90f709d73bd47b71619fadbd99c67e82a",
    ("dk27", "exact", 0): "6fc2ad7522969ea008bb8a59318d0d103f42c44d251546ae86a7e21dd62f2e9e",
    ("dk27", "exact", 1): "ea266686c23c754b4f81ca1574482a88d622271c5947c6dd99f687794f0d3a80",
    ("dk27", "table3", 0): "6fc2ad7522969ea008bb8a59318d0d103f42c44d251546ae86a7e21dd62f2e9e",
    ("dk27", "table3", 1): "a5a37bb68b33115a850b83e32263b14eb4b941ada142ebaba113ecffe88d5adf",
    ("lion", "exact", 0): "8f9771d7d95b899b8127eae77ad255f4a3008596bbb16e68f9bf09258444ae58",
    ("lion", "exact", 1): "58e93e779114206c40db818d24703d60cdfc4601e90a26f6b635c3d418931d08",
    ("lion", "table3", 0): "8f9771d7d95b899b8127eae77ad255f4a3008596bbb16e68f9bf09258444ae58",
    ("lion", "table3", 1): "58e93e779114206c40db818d24703d60cdfc4601e90a26f6b635c3d418931d08",
    ("mc", "exact", 0): "d503df76a578943d42f0c05cb802fbdeee4b730f8a3f3aff48153afafcafb5ca",
    ("mc", "exact", 1): "24855b6442e4faeaddbd40fd0772fa12e05f5361152004e924c34d72045dd48c",
    ("mc", "table3", 0): "d503df76a578943d42f0c05cb802fbdeee4b730f8a3f3aff48153afafcafb5ca",
    ("mc", "table3", 1): "24855b6442e4faeaddbd40fd0772fa12e05f5361152004e924c34d72045dd48c",
    ("opus", "exact", 0): "f74790dc7aa0def9509911cc108255269803a2fb96c5ecd1fa19d7c8278dd300",
    ("opus", "exact", 1): "12e3d3834e0a5be606185df408ccf29ecc3b85141c363d72db5f5e89d910391a",
    ("opus", "table3", 0): "7cc86d1a9248468ca602d1ffed9194d003fb85ac386a99a7cc9a2b589059dfcc",
    ("opus", "table3", 1): "409c3ee7768f316dba4ea23ec8ae0acbbb7c18a14af22c5ddd4078e31cd0a4b6",
    ("s386", "exact", 0): "2dfb82821fc6b925b2e7192538380b19da840b711e7a6ab85d2767608ee3b0ce",
    ("s386", "exact", 1): "3b2e835f9dcfdee1750a36070bd0b3b7f032338cd85412bc9bc182855d02de30",
    ("s386", "table3", 0): "f88ee13272066c19c3e9773c8f48dcea57a031cf9131cfc738c8de79ca851220",
    ("s386", "table3", 1): "8cc600860dfba80763b6f0533ff4be85d74cec9e2cf9c3f7b75a21e8c331bf2e",
    ("shiftreg", "exact", 0): "1294748217dabf337565e98956324b3bcde2ceb616dca7099146f0facbbf49c1",
    ("shiftreg", "exact", 1): "397e83917179eb387297781f4659bdcbd675799159228654125d351b949e0c7c",
    ("shiftreg", "table3", 0): "748bd22f4288c283ce498fcb2e5ae1961657673c08f17de4224def72d754b9dd",
    ("shiftreg", "table3", 1): "9b569cac76eb2bf5fe90b874d467fe9a6c3c8009950ef8663991f6e7837c12c6",
    ("train4", "exact", 0): "cb65095e3ccc6284f155b1b723c3bffd78a51f617830bf31442e65610d7d65de",
    ("train4", "exact", 1): "6964955f2b3b90ea17efb87d1260319c60bdab684eed07f4eacc0d17536218f0",
    ("train4", "table3", 0): "cb65095e3ccc6284f155b1b723c3bffd78a51f617830bf31442e65610d7d65de",
    ("train4", "table3", 1): "6964955f2b3b90ea17efb87d1260319c60bdab684eed07f4eacc0d17536218f0",
}


@pytest.mark.parametrize("name,kind,extra", sorted(PINNED_DIMACS_SHA256))
def test_dimacs_text_is_pinned(name, kind, extra):
    _, trace = machine_trace(name, 30, 3, NoiseModel(kind=kind))
    cs = build_constraints(trace, PINNED_WIDTH[name] + extra)
    text = to_dimacs(encode_cnf(cs))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_DIMACS_SHA256[(name, kind, extra)]


# ------------------------------------------------------------------ dimacs


def test_dimacs_round_trip():
    trace = synthetic_trace(["00", "01", "01", "10"], [1, 0, 2], input_bits=1)
    cs = build_constraints(trace, width=2)
    cnf = encode_cnf(cs)
    text = to_dimacs(cnf)
    n_vars, clauses = parse_dimacs(text)
    assert n_vars == cnf.n_vars
    assert clauses == cnf.clauses


def test_dimacs_header_and_terminators():
    cs = cset(1, [0, 1])
    cnf = encode_cnf(cs)
    text = to_dimacs(cnf)
    lines = text.strip().splitlines()
    assert lines[0] == f"p cnf {cnf.n_vars} {len(cnf.clauses)}"
    assert all(line.endswith(" 0") or line == "0" for line in lines[1:])


def test_dimacs_empty_clause_round_trips():
    cs = cset(1, [0, 0], [(2, 1)])
    cnf = encode_cnf(cs)
    n_vars, clauses = parse_dimacs(to_dimacs(cnf))
    assert [] in clauses
    assert n_vars == cnf.n_vars


def test_variable_map_sidecar_lists_every_position_bit():
    cs = cset(2, [0, 0, 1])
    cnf = encode_cnf(cs)
    text = variable_map_text(cnf)
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    assert rows == [
        (p, b, p * 2 + b + 1) for p in range(3) for b in range(2)
    ]


def test_parse_dimacs_accepts_comments_and_multiline_clauses():
    text = "c header\np cnf 3 2\n1 -2\n0\nc mid\n2 3 0\n"
    n_vars, clauses = parse_dimacs(text)
    assert n_vars == 3
    assert clauses == [[1, -2], [2, 3]]


# malformed text -> what the error must say, with its line when it has one
MALFORMED_DIMACS = {
    "p cnf x 2\n1 0\n": "line 1: bad problem line",
    "1 2 0\n": "line 1: clause before problem line",
    "p cnf 2 1\n1 3 0\n": "line 2: literal 3 out of range",
    "p cnf 2 1\n1 2\n": "not 0-terminated",
    "p cnf 2 2\n1 0\n": "declares 2 clauses, found 1",
    "": "missing problem line",
    "p cnf 2 1\n1 x 0\n": "line 2: bad literal 'x'",
    "c two\np cnf 2 1\n1 2.0 0\n": "line 3: bad literal '2.0'",
    "p cnf 12 1\n1_0 0\n": "line 2: bad literal '1_0'",
    "p cnf 2 1\n+1 0\n": "line 2: bad literal '\\+1'",
    "p cnf 2 1\n--1 0\n": "line 2: bad literal '--1'",
    "p cnf -1 0\n": "line 1: bad problem line",
    "p cnf 2 -1\n": "line 1: bad problem line",
    "p cnf +2 1\n1 0\n": "line 1: bad problem line",
    "p cnf 1_0 1\n1 0\n": "line 1: bad problem line",
    "p cnf \u00b2 1\n1 0\n": "line 1: bad problem line",  # superscript two
    "p cnf 2 1\np cnf 3 1\n1 0\n": "line 2: second problem line",
    "p cnf 2 1\n1 0\np cnf 2 1\n": "line 3: second problem line",
}


@pytest.mark.parametrize("text", list(MALFORMED_DIMACS))
def test_parse_dimacs_rejects_malformed(text):
    with pytest.raises(ValueError, match=MALFORMED_DIMACS[text]):
        parse_dimacs(text)
