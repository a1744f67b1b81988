"""CNF encoder tests: structure, equivalence with the direct evaluator,
and DIMACS round-trips.

The equivalence oracle enumerates every assignment of register values to
positions and checks that the formula is satisfiable under that projection
exactly when the constraint evaluator accepts it.  Under the position
bits, unit propagation either refutes a projection or leaves open only the
code owners and the at-most-one-owner chain; setting every open owner
false then propagates to a model without a conflict.  So each projection
is decided without search.
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


def owner_variables(cs: ConstraintSet) -> range:
    """The ownership table's owner variables, 2^w per output group, right
    after the windows' auxiliaries; the chain variables follow them."""
    n_groups = len(set(cs.groups))
    if n_groups < 2:
        return range(0)
    bare = encode_cnf(cset(cs.width, [0] * cs.n_positions, cs.windows))
    return range(bare.n_vars + 1, bare.n_vars + 1 + (n_groups << cs.width))


def exhaustive_check(cs: ConstraintSet) -> None:
    """Assert CNF-satisfiability == evaluator verdict on every projection."""
    cnf = encode_cnf(cs)
    owners = owner_variables(cs)
    n = cs.n_positions
    for values in itertools.product(range(1 << cs.width), repeat=n):
        status = cnf_projection_status(cnf, list(values), owners)
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
    # ownership table: owner[g][c] for 2 groups over 8 codes (two groups
    # need no chain variable)
    assert cnf.n_vars == 6 + 3 + 2 * 8


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
    # then owner[g][c] = 7 + 4g + c, "output group g owns code c": per
    # position and code, "p holds c" implies its group's owner
    assert cnf.clauses[8:] == [
        [7, 1, 2], [8, 1, -2], [9, -1, 2], [10, -1, -2],  # p0 in group 0
        [11, 3, 4], [12, 3, -4], [13, -3, 4], [14, -3, -4],  # p1 in group 1
        # at most one owner per code: with two groups, one binary clause
        [-11, -7], [-12, -8], [-13, -9], [-14, -10],
    ]
    assert cnf.n_vars == 14


def test_ownership_chain_defines_one_prefix_per_inner_group():
    # three groups at width 1: per code, s = owner[0] OR owner[1] is the
    # one chain variable, and owner[1] and owner[2] each clash with the
    # prefix before them; variables 4 and 5 are the vacuous windows'
    # difference variables
    cnf = encode_cnf(cset(1, [0, 1, 2]))
    owner = {(g, c): 6 + 2 * g + c for g in range(3) for c in range(2)}
    chain = cnf.clauses[-10:]
    assert chain[:5] == [
        [-owner[1, 0], -owner[0, 0]],
        [-owner[0, 0], 12], [-owner[1, 0], 12], [-12, owner[0, 0], owner[1, 0]],
        [-owner[2, 0], -12],
    ]
    assert chain[5:] == [
        [-owner[1, 1], -owner[0, 1]],
        [-owner[0, 1], 13], [-owner[1, 1], 13], [-13, owner[0, 1], owner[1, 1]],
        [-owner[2, 1], -13],
    ]
    assert cnf.n_vars == 13
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


# ------------------------------------------------------------- references

# Width the distinct outputs of each machine's 30-step walk (seed 3)
# force, under either channel: ceil(log2(distinct outputs)), at least 1.
PINNED_WIDTH = {
    "bbtas": 2, "dk27": 2, "lion": 1, "mc": 2,
    "opus": 4, "s386": 4, "shiftreg": 1, "train4": 1,
}

REFERENCES = (cnf_reference.pair_expansion, cnf_reference.ownership_rows)


def assert_agrees_with_references(cs: ConstraintSet) -> str:
    """The encoder and both reference encodings are satisfiable alike, and
    the encoder's model decodes to values the independent checker accepts;
    returns the status."""
    cnf = encode_cnf(cs)
    got = solve_cnf(cnf.n_vars, cnf.clauses)
    for encode in REFERENCES:
        ref = encode(cs)
        assert solve_cnf(ref.n_vars, ref.clauses).status == got.status, encode
    if got.status == SAT:
        assert find_violation(cs, decode_positions(cnf, got.model)) is None
    return got.status


@pytest.mark.parametrize("name", sorted(PINNED_WIDTH))
@pytest.mark.parametrize("kind", ["exact", "table3"])
def test_ownership_table_agrees_with_pair_expansion_on_pinned_walks(name, kind):
    _, trace = machine_trace(name, 30, 3, NoiseModel(kind=kind))
    r0 = forced_width(trace)
    for width in range(r0, r0 + 3):
        assert_agrees_with_references(build_constraints(trace, width))


def random_window(rng, width: int) -> tuple[int, int]:
    """A zero, nonzero, vacuous or infeasible window, the last rarely."""
    kind = rng.choices(range(4), weights=(3, 3, 3, 1))[0]
    if kind == 0:
        return (0, 0)
    if kind == 1:
        lo = rng.randint(1, width)
        return (lo, rng.randint(lo, width))
    if kind == 2:
        return (0, width)
    return rng.choice([(1, 0), (width + 1, width + 1)])


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
            assert_agrees_with_references(cset(width, groups, windows))
        )
    assert statuses == {SAT, UNSAT}


def test_ownership_table_admits_what_the_ownership_rows_admit():
    # every position assignment of small random sets, each decided by
    # propagation: the rows' auxiliaries are functions of the position
    # bits, the table's owners are not
    rng = random.Random(27_2710)
    admitted = total = 0
    for _ in range(100):
        width = rng.randint(1, 3)
        n = rng.randint(1, 6 if width < 3 else 4)
        windows = [random_window(rng, width) for _ in range(n - 1)]
        n_groups = rng.randint(1, 4)
        cs = cset(width, [rng.randrange(n_groups) for _ in range(n)], windows)
        cnf = encode_cnf(cs)
        rows = cnf_reference.ownership_rows(cs)
        owners = owner_variables(cs)
        for values in itertools.product(range(1 << width), repeat=n):
            got = cnf_projection_status(cnf, list(values), owners)
            assert got in ("sat", "conflict"), f"propagation stuck on {values}"
            assert got == cnf_projection_status(rows, list(values)), (cs, values)
            admitted += got == "sat"
            total += 1
    assert 0 < admitted < total


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
    ref = cnf_reference.pair_expansion
    assert alternating_clauses(ref, 200) / alternating_clauses(ref, 100) > 3


def test_distinctness_costs_one_clause_per_position_and_code():
    # past the windows' clauses and variables: 2^w * (N + 4G - 7) clauses
    # and 2^w * (2G - 2) variables, G owners and G - 2 chain variables per
    # code; nothing with one output group
    rng = random.Random(27_0027)
    grouped = 0
    for _ in range(60):
        width = rng.randint(1, 4)
        n = rng.randint(1, 30)
        windows = [random_window(rng, width) for _ in range(n - 1)]
        n_groups = rng.randint(1, 6)
        groups = [rng.randrange(n_groups) for _ in range(n)]
        cnf = encode_cnf(cset(width, groups, windows))
        bare = encode_cnf(cset(width, [0] * n, windows))
        assert cnf.clauses[:len(bare.clauses)] == bare.clauses
        g = len(set(groups))
        if g < 2:
            assert (cnf.n_vars, cnf.clauses) == (bare.n_vars, bare.clauses)
            continue
        grouped += 1
        codes = 1 << width
        assert len(cnf.clauses) - len(bare.clauses) == codes * (n + 4 * g - 7)
        assert cnf.n_vars - bare.n_vars == codes * (2 * g - 2)
    assert grouped > 30


def test_opus_gaussian_round_encodes_under_60k_clauses():
    # round 0 of ``attack --target opus --noise gaussian --sigma 30
    # --seed 1``, default vectors: the forced width 4 cannot carry one of
    # its windows, and the phase seed fails at width 5, where the pair
    # expansion encoded 3,864,786 clauses and the ownership rows 173,690
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
    assert len(encode_cnf(cs).clauses) < 60_000


# ---------------------------------------------------------------- pinned

# sha256 of the DIMACS text for that walk on each bundled machine, at
# PINNED_WIDTH and one wider.  Recorded from the encoder whose
# ownership table has one clause per position and code; any change to
# variable numbering or clause order changes solver runs and must show up
# here.
PINNED_DIMACS_SHA256 = {
    ("bbtas", "exact", 0): "4a6c60ef9cfdd1ca1587705a8e0e84bf6dc8a0eb48147bb01826a086635dce7b",
    ("bbtas", "exact", 1): "65f3d10fe285c487976b6d460ccfb51ee34ca93fd8172ecc73bdd1f5165fe8ec",
    ("bbtas", "table3", 0): "be8cec4d627f31b1a4a22d1d1e5cdaddc981b1bb1c5b71a15d5424177a91da71",
    ("bbtas", "table3", 1): "6a48e9ea2687ce77cbdc4cfb5598662811b983fa5eed12a6bb45f3545e28690b",
    ("dk27", "exact", 0): "cbf4695b44973c2599dd83789119f1f0543385ead773c1924b612ef34c2185c5",
    ("dk27", "exact", 1): "9b6f4200bd67448d81cd8e52eb38a357ae7290296f885dcb021c8706a77efd73",
    ("dk27", "table3", 0): "cbf4695b44973c2599dd83789119f1f0543385ead773c1924b612ef34c2185c5",
    ("dk27", "table3", 1): "d8de1a07d4b39bde2007ba12f65e139bf72173a07c5fefabd106609db75e4f24",
    ("lion", "exact", 0): "6c0b1459c1c1545135c1ba741b4001a52a80fb29fb8333629bf8e4c508ef2945",
    ("lion", "exact", 1): "2aebc46fcf589beae32c80a53c240a9ae4ab7cad62144d19890b2874f51ebd34",
    ("lion", "table3", 0): "6c0b1459c1c1545135c1ba741b4001a52a80fb29fb8333629bf8e4c508ef2945",
    ("lion", "table3", 1): "2aebc46fcf589beae32c80a53c240a9ae4ab7cad62144d19890b2874f51ebd34",
    ("mc", "exact", 0): "0ece25082a0e07008d7f6527ee1943196cad95299ed1f874d5a8bfd14a83df51",
    ("mc", "exact", 1): "4fdf0a59440a17f9253cfe6d926c06c09d3b077512b3ff79827ff576fa52f7ec",
    ("mc", "table3", 0): "0ece25082a0e07008d7f6527ee1943196cad95299ed1f874d5a8bfd14a83df51",
    ("mc", "table3", 1): "4fdf0a59440a17f9253cfe6d926c06c09d3b077512b3ff79827ff576fa52f7ec",
    ("opus", "exact", 0): "1157dd0bb0cc087ef5b03514ff76332464cead6388c058e9f3c3512e5b75e875",
    ("opus", "exact", 1): "e8959dfb7f97f6fafd9a31a6caae31c0499f3dda2853f58caf1e5021d78654dc",
    ("opus", "table3", 0): "e1714786fe80eb09c2c7130f86a7918fab1401bec3b749c3c298f6d7ab526f78",
    ("opus", "table3", 1): "37579601ef04c7b3558723a9246691354aac1840036859ea1d0fc65cef9cc2a2",
    ("s386", "exact", 0): "2057ba90cafb2f281517392c6a342966a1b2854af70ee103d5ba1e15813adbf5",
    ("s386", "exact", 1): "a3d749a01a0531de7469db95b4abc9f1c7c372baf6f481e4f23d366a139f39b2",
    ("s386", "table3", 0): "d1553805e910c58fb1f9f8e5c5fa7d76f00ecde37ca17d25ee7b20cd9c5f7559",
    ("s386", "table3", 1): "2106b74de29ab99911238c4874915829d21346f244b3892d7396dfcb2d5b44d0",
    ("shiftreg", "exact", 0): "56ac62e10eaef6dc21ae98869e03cdf686d4a7e365cf5b2a51f5c160c0b9ccc5",
    ("shiftreg", "exact", 1): "8902bd571a4012174ed5a364f7da7668a636a300fe6139a0aae424a9a4eddfb7",
    ("shiftreg", "table3", 0): "88c7cee9eb480746b2f826aa1756b5bb81ccc0017c7243ff00a72c09e55a37e6",
    ("shiftreg", "table3", 1): "25b89be33123d2528e8312b965643a10faf4339cfa23fd87401d8de82a3d4fe4",
    ("train4", "exact", 0): "d646fc9654433b7808c70b5233d3909d448a96d17710263a29713adb3313e620",
    ("train4", "exact", 1): "df01ba7ef844796fd64775fb44c1d87ed5b809767178c038eae5438d49a13b5e",
    ("train4", "table3", 0): "d646fc9654433b7808c70b5233d3909d448a96d17710263a29713adb3313e620",
    ("train4", "table3", 1): "df01ba7ef844796fd64775fb44c1d87ed5b809767178c038eae5438d49a13b5e",
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
