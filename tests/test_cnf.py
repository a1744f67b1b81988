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

from conftest import (
    cnf_projection_status,
    machine_trace,
    synthetic_trace,
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
)
from fsmrecon.sat import UNSAT, solve_cnf


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
    assert cnf.n_vars == 6 + 3  # three difference variables follow


def test_identical_emits_two_equivalence_clauses_per_bit():
    cs = cset(4, [0, 0], [(0, 0)])
    cnf = encode_cnf(cs)
    assert len(cnf.clauses) == 8
    assert [-1, 5] in cnf.clauses and [1, -5] in cnf.clauses
    assert cnf.n_vars == 8  # no auxiliaries


def test_distinct_emits_xor_definitions_and_or_clause():
    cs = cset(2, [0, 1])
    cnf = encode_cnf(cs)
    ds = [5, 6]  # the first auxiliaries, one per bit of pair (0, 1)
    # 4 XOR clauses per difference variable plus the at-least-one clause
    assert len(cnf.clauses) == 4 * 2 + 1
    assert ds in cnf.clauses
    d = ds[0]
    for clause in ([-d, 1, 3], [-d, -1, -3], [d, -1, 3], [d, 1, -3]):
        assert clause in cnf.clauses


def test_distinct_and_window_share_difference_variables():
    cs = cset(2, [0, 1], [(1, 2)])
    cnf = encode_cnf(cs)
    # the pair's difference variables 5 and 6 are defined once, for the
    # window, and its distinctness clause reuses them
    for d, (xi, xj) in ((5, (1, 3)), (6, (2, 4))):
        assert sum(1 for c in cnf.clauses if c == [-d, xi, xj]) == 1
    assert cnf.clauses[-1] == [5, 6]
    defined = {
        -c[0] for c in cnf.clauses
        if len(c) == 3 and c[0] < 0 and 0 < c[1] <= 4 and 0 < c[2] <= 4
    }
    assert defined == {5, 6}


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


# ---------------------------------------------------------------- pinned

# Width the distinct outputs of each machine's 30-step walk (seed 3)
# force, under either channel: ceil(log2(distinct outputs)), at least 1.
PINNED_WIDTH = {
    "bbtas": 2, "dk27": 2, "lion": 1, "mc": 2,
    "opus": 4, "s386": 4, "shiftreg": 1, "train4": 1,
}

# sha256 of the DIMACS text for that walk on each bundled machine, at
# PINNED_WIDTH and one wider.  Recorded from the encoder that still
# stored one constraint object per differing-output pair; any change to
# variable numbering or clause order changes solver runs and must show up here.
PINNED_DIMACS_SHA256 = {
    ("bbtas", "exact", 0): "6cf0c000bc39d77b50187dbfb65ead6b8ff9237284e63e0c677717ae15ff3d41",
    ("bbtas", "exact", 1): "d6acddb54346933e3b6b4f6efb3369e0d1be3332c720bc35954b0b1d9e9d7be8",
    ("bbtas", "table3", 0): "f262b9d9677783d31b584d38246c2b9805c4a0240d95439942dba615ef88cd2e",
    ("bbtas", "table3", 1): "7b6ec0c422da2079b8800e7d6d1ce0a8281a4ae6c4d99914d8b94eeabd1bfefd",
    ("dk27", "exact", 0): "2ebbbbc75946cd2c55d49632121f7f8c2e012f36b06e8a59c1a6570d580aca4f",
    ("dk27", "exact", 1): "3b5c5a293f7fb3b7dfdb1ea7af2d887c4dcd7fa8851b60ae463f1e7830a44fed",
    ("dk27", "table3", 0): "2ebbbbc75946cd2c55d49632121f7f8c2e012f36b06e8a59c1a6570d580aca4f",
    ("dk27", "table3", 1): "a555a76744ed41e4e481fa195ca3da368cfd0b584fb2b38d69825f86cb6e6632",
    ("lion", "exact", 0): "d05b1250645ca1741751836ef3d9de47f851f99e967c48e86c322c40fad79938",
    ("lion", "exact", 1): "84fe82401da3da427c7ea210db4403374b18b725bb03fc95c05ea69466f1eda6",
    ("lion", "table3", 0): "d05b1250645ca1741751836ef3d9de47f851f99e967c48e86c322c40fad79938",
    ("lion", "table3", 1): "84fe82401da3da427c7ea210db4403374b18b725bb03fc95c05ea69466f1eda6",
    ("mc", "exact", 0): "5968217a6df539de1dd4c239045629c6cf0d867dc799ba2963f0749cbdb6e070",
    ("mc", "exact", 1): "dcb6850a2f812edbf799a71a026b32b748c0604d62a9196d01c4bed22555395b",
    ("mc", "table3", 0): "5968217a6df539de1dd4c239045629c6cf0d867dc799ba2963f0749cbdb6e070",
    ("mc", "table3", 1): "dcb6850a2f812edbf799a71a026b32b748c0604d62a9196d01c4bed22555395b",
    ("opus", "exact", 0): "f3c0856bfa3450ea02a6ce2862078bad715730c1b40cfead05c6778072003a96",
    ("opus", "exact", 1): "a2b9de46db9e7d762d891f24eec531ef667282511ff16918055357096ba40c35",
    ("opus", "table3", 0): "58751b3ee744dc1cfae973f1fc18f768e84098352481068a98696ca6c8f23ea6",
    ("opus", "table3", 1): "c3b5890ed7eca93e6c66b919f8e3cad1c72c422739385abbbc436b49126cfc2e",
    ("s386", "exact", 0): "383c8a43827bb312addb94217dc30794e0c086eb975bba8d8a796b66fe5c8df4",
    ("s386", "exact", 1): "7faa6e05469e865c2bfb83ac97573bcb11a12c56213050dd72089ee45bc81f70",
    ("s386", "table3", 0): "7ef2fe827f3dc5e5b47384697ce2412eb4425cefb7d8c1e70f8abb454c36c1e2",
    ("s386", "table3", 1): "3d2a0a016f6b6b36f7d67239b3a6d7d09527862d9e21eacf0715aa5cf15b86da",
    ("shiftreg", "exact", 0): "361354db8af4f58fb836d5a3981de83a66c400451701e56dca9e50f4bb23106f",
    ("shiftreg", "exact", 1): "9e184e9736493e82e816b66053f29b18cd4487456aaf782dae4fb7b4d2d9be59",
    ("shiftreg", "table3", 0): "440b5b831efb31fa1327fcfc9a0e1b7fcf6a2c566a26ba9334c5b309e9234c0b",
    ("shiftreg", "table3", 1): "2f9dc4fb24b61328c40ad0e5ac27b880bb3be54ddea3edf82657b4f518902c3c",
    ("train4", "exact", 0): "1655b10daaa68c52510fd96d46b72d5a878f3d16a00ceb07d7e969c40d1750d8",
    ("train4", "exact", 1): "3ebb907057cce9da373555bc7fb3826d5ff34a95dab8724b3f8e454c893dff0a",
    ("train4", "table3", 0): "1655b10daaa68c52510fd96d46b72d5a878f3d16a00ceb07d7e969c40d1750d8",
    ("train4", "table3", 1): "3ebb907057cce9da373555bc7fb3826d5ff34a95dab8724b3f8e454c893dff0a",
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
