"""Recovery tests: the state-grouping guess, class-code search, phase
seeding, seed-solved widths, and the width-probing solve loop."""

import dataclasses
import os
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypothesis_reference
from conftest import (
    machine_trace,
    random_moore,
    synthetic_trace,
    true_state_sequence,
)
from fsmrecon import benchmarks, recovery
from fsmrecon.capture import (
    BlackBoxDevice,
    gen_stimulus,
    output_groups,
    run_trace,
)
from fsmrecon.channel import NoiseModel
from fsmrecon.cnf import decode_positions, encode_cnf, parse_dimacs
from fsmrecon.congruence import Congruence
from fsmrecon.constraints import (
    ConstraintSet,
    build_constraints,
    find_violation,
    forced_width,
)
from fsmrecon.fsm import assign_binary_encoding, code_width
from fsmrecon.recovery import (
    _SEED_MAX_WIDTH,
    build_phases,
    class_hulls,
    merge_hypothesis,
    recover_encodings,
    search_class_codes,
    seed_codes,
)
from fsmrecon.sat import SAT, CdclSolver, SolveOutcome, SolverStats
from fsmrecon.stg import StgConflictError, build_partial_stg


def hypothesis_matches_truth(enc, trace, classes) -> bool:
    """True when classes and ground-truth states are in bijection."""
    truth = true_state_sequence(enc, trace.stimulus)
    pairs = {(t, c) for t, c in zip(truth, classes)}
    return len(pairs) == len(set(truth)) == len(set(classes))


# ------------------------------------------------------- state-merge guess


def test_zero_distance_chain_shares_one_class():
    trace = synthetic_trace(["0", "0", "0", "1"], [0, 0, 1])
    classes = merge_hypothesis(trace)
    assert classes[0] == classes[1] == classes[2] == 0
    assert classes[3] != 0


def test_distinct_outputs_never_merge():
    trace = synthetic_trace(["00", "01", "10"], [1, 1], input_bits=1)
    assert merge_hypothesis(trace) == [0, 1, 2]


def test_nonzero_window_blocks_merging_its_endpoints():
    # same output on both sides of a step that provably changed state
    trace = synthetic_trace(["0", "0"], [1])
    assert merge_hypothesis(trace) == [0, 1]


def test_successor_divergence_blocks_merging():
    # positions 0 and 2 share an output but the same input leads to
    # different-output successors, so they cannot be the same state
    trace = synthetic_trace(
        ["00", "01", "00", "10"], [1, 1, 1], input_bits=1, stimulus=[0, 1, 0]
    )
    classes = merge_hypothesis(trace)
    assert classes[0] != classes[2]
    assert len(set(classes)) == 4


def test_incompatible_step_windows_block_merging():
    # both "0" positions step under the same input, but one moves distance
    # [1,2] and the other [3,5]: one state cannot do both
    trace = synthetic_trace(["0", "1", "0", "1"], [1, 1, 4], input_bits=1)
    classes = merge_hypothesis(trace)
    assert classes[0] != classes[2]


def test_compatible_evidence_merges_equal_outputs():
    # same outputs, different inputs on their outgoing steps: no refutation
    trace = synthetic_trace(
        ["00", "01", "00", "01"], [1, 1, 1], input_bits=1, stimulus=[0, 1, 1]
    )
    classes = merge_hypothesis(trace)
    assert classes[0] == classes[2]
    assert classes[1] == classes[3]


@pytest.mark.parametrize("name", ["lion", "train4", "dk27", "bbtas", "mc"])
@pytest.mark.parametrize("kind", ["exact", "table3"])
def test_hypothesis_invariants_hold_on_machine_walks(name, kind):
    noise = NoiseModel.exact() if kind == "exact" else NoiseModel.table3()
    enc, trace = machine_trace(name, 220, seed=418, noise=noise)
    classes = merge_hypothesis(trace)
    # same class implies same output vector
    out_of_class = {}
    for pos, cid in enumerate(classes):
        out_of_class.setdefault(cid, trace.outputs[pos])
        assert out_of_class[cid] == trace.outputs[pos]
    # zero-distance chains are never separated
    for k, inf in enumerate(trace.inferred):
        if inf.center == 0:
            assert classes[k] == classes[k + 1]
    # steps that provably changed state never collapse
    for k, inf in enumerate(trace.inferred):
        if inf.center > 0:
            assert classes[k] != classes[k + 1]
    # deterministic
    assert classes == merge_hypothesis(trace)


@pytest.mark.parametrize("kind", ["exact", "table3"])
def test_hypothesis_matches_truth_when_outputs_are_unique(kind):
    # every state of this machine has a unique output vector, so output
    # grouping plus determinism closure lands exactly on the truth
    noise = NoiseModel.exact() if kind == "exact" else NoiseModel.table3()
    enc, trace = machine_trace("mc", 220, seed=418, noise=noise)
    assert hypothesis_matches_truth(enc, trace, merge_hypothesis(trace))


@pytest.mark.parametrize("name", ["lion", "train4", "dk27", "bbtas", "shiftreg"])
def test_pooled_walks_pin_down_low_information_machines(name):
    # a single walk underdetermines machines whose outputs reveal little;
    # pooling several walks from the same reset pins the grouping down
    pool = []
    enc = trace = None
    for seed in (700, 701, 702, 703, 704):
        if trace is not None:
            pool.append(trace)
        enc, trace = machine_trace(name, 150, seed)
    classes = merge_hypothesis(trace, tuple(pool))
    assert hypothesis_matches_truth(enc, trace, classes)


def test_pooled_walks_must_share_arity():
    a = synthetic_trace(["0", "1"], [1], input_bits=1)
    b = synthetic_trace(["00", "01"], [1], input_bits=1)
    with pytest.raises(ValueError):
        merge_hypothesis(a, (b,))


def test_inconsistent_pooled_resets_fall_back_to_output_grouping():
    # fabricated: the two "captures" disagree on the reset output, which no
    # single device can produce — the guess degrades to output grouping
    a = synthetic_trace(["0", "1"], [1], input_bits=1)
    b = synthetic_trace(["1", "0"], [1], input_bits=1)
    assert merge_hypothesis(a, (b,)) == [0, 1]


def test_pooled_walks_whose_resets_cannot_merge_fall_back_to_output_grouping():
    # a's nonzero first step joins two equal outputs, so the one-pass
    # check fails and the search starts; it cannot merge the two resets,
    # whose outputs differ, and falls back to output grouping
    a = synthetic_trace(["0", "0", "1"], [1, 2])
    b = synthetic_trace(["1", "1"], [0])
    assert not outputs_identify_states([a, b])
    assert merge_hypothesis(a, (b,)) == [0, 0, 1] == output_groups(a.outputs)


# ------------------------------------------------------------------- hulls


def test_class_hulls_intersect_repeated_windows():
    # same class pair observed twice with different centers
    trace = synthetic_trace(["0", "1", "0", "1"], [1, 1, 2], input_bits=1)
    classes = merge_hypothesis(trace)
    assert classes == [0, 1, 0, 1]
    cs = build_constraints(trace, width=4)
    hulls = class_hulls(cs, classes)
    # windows [1,2], [1,2], [1,3] all sit between classes 0 and 1
    assert hulls == {(0, 1): (1, 2)}


def test_class_hulls_reject_window_inside_one_class():
    trace = synthetic_trace(["0", "0"], [1])
    cs = build_constraints(trace, width=2)
    # the unusable window is dropped
    assert class_hulls(cs, [0, 0]) == {}


def test_class_hulls_reject_contradictory_windows():
    trace = synthetic_trace(["0", "1", "0", "1"], [1, 1, 4], input_bits=1)
    cs = build_constraints(trace, width=5)
    grouping = [0, 1, 0, 1]  # force both steps onto one class pair
    assert class_hulls(cs, grouping) == {}  # [1,2] against [3,5]


# ------------------------------------------------------------- code search


def test_search_finds_codes_meeting_hulls():
    hulls = {(0, 1): (1, 1), (0, 2): (2, 2), (1, 2): (1, 1)}
    codes = search_class_codes(3, 2, hulls)
    assert codes is not None
    assert len(set(codes)) == 3
    for (a, b), (lo, hi) in hulls.items():
        assert lo <= (codes[a] ^ codes[b]).bit_count() <= hi


def test_search_requires_enough_codes():
    assert search_class_codes(3, 1, {}) is None  # 3 classes, 2 codes


def test_search_detects_unsatisfiable_hulls():
    # two classes forced both to distance 1 and distance 2 of each other
    assert search_class_codes(2, 2, {(0, 1): (2, 1)}) is None


def recursive_class_code_search(n_classes, width, hulls, budget):
    """The class-code search as a recursion, one frame per class: the
    reference ``search_class_codes`` must match, codes or None."""
    size = 1 << width
    neighbors = {}
    for (a, b), (lo, hi) in hulls.items():
        neighbors.setdefault(a, []).append((b, lo, hi))
        neighbors.setdefault(b, []).append((a, lo, hi))
    domains = [set(range(size)) for _ in range(n_classes)]
    codes = [-1] * n_classes

    def bt():
        nonlocal budget
        cid, best = -1, size + 1
        for c in range(n_classes):
            if codes[c] < 0 and len(domains[c]) < best:
                best, cid = len(domains[c]), c
        if cid < 0:
            return True
        for code in sorted(domains[cid]):
            budget -= 1
            if budget <= 0:
                return False
            codes[cid] = code
            removed, wiped = [], False
            for other in range(n_classes):
                if codes[other] < 0 and code in domains[other]:
                    domains[other].discard(code)
                    removed.append((other, code))
                    if not domains[other]:
                        wiped = True
                        break
            if not wiped:
                for other, lo, hi in neighbors.get(cid, ()):
                    if codes[other] >= 0:
                        continue
                    for cand in sorted(domains[other]):
                        if not lo <= (cand ^ code).bit_count() <= hi:
                            domains[other].discard(cand)
                            removed.append((other, cand))
                    if not domains[other]:
                        wiped = True
                        break
            if not wiped and bt():
                return True
            for other, cand in removed:
                domains[other].add(cand)
            codes[cid] = -1
        return False

    return codes if bt() else None


@st.composite
def code_search_cases(draw):
    n_classes = draw(st.integers(min_value=1, max_value=9))
    width = draw(st.integers(min_value=1, max_value=4))
    pairs = [(a, b) for a in range(n_classes) for b in range(a + 1, n_classes)]
    hulls = {}
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ():
        lo = draw(st.integers(min_value=0, max_value=width))
        hulls[pair] = (lo, draw(st.integers(min_value=max(0, lo - 1), max_value=width)))
    budget = draw(st.one_of(st.integers(min_value=1, max_value=60), st.just(500_000)))
    return n_classes, width, hulls, budget


@given(code_search_cases())
@settings(max_examples=300, deadline=None)
def test_search_matches_the_recursive_search(case):
    n_classes, width, hulls, budget = case
    with mock.patch.object(recovery, "_SEARCH_BUDGET", budget):
        got = search_class_codes(n_classes, width, hulls)
    assert got == recursive_class_code_search(n_classes, width, hulls, budget)


def test_search_runs_past_the_recursion_limit():
    # a recursion would need one frame per class: 1,500 of them
    assert search_class_codes(1500, 11, {}) == list(range(1500))


@pytest.mark.parametrize("width", range(1, 8))
def test_hull_windows_hold_the_codes_in_their_distance_window(width):
    size = 1 << width
    hulls = {
        (0, k + 1): pair
        for k, pair in enumerate(
            (lo, hi) for lo in range(width + 2) for hi in range(lo - 1, width + 2)
        )
    }
    neighbors = recovery._hull_windows(len(hulls) + 1, width, hulls)
    for (_, window), (lo, hi) in zip(neighbors[0], hulls.values()):
        for code in reversed(range(size)):  # a parent is derived on demand
            mask = window[code]
            want = {v for v in range(size) if lo <= (v ^ code).bit_count() <= hi}
            assert mask == sum(1 << v for v in want)


def test_search_keeps_one_bit_mask_per_class():
    """300 classes at width 9: a set of 512 codes per class peaked at
    15.8 MiB under tracemalloc; a mask per class stays far below 2 MiB."""
    tracemalloc.start()
    try:
        codes = search_class_codes(300, 9, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == list(range(300))
    assert peak < 2 * 2**20


def test_phases_prime_position_bits_msb_first():
    trace = synthetic_trace(["0", "1"], [1])
    cs = build_constraints(trace, width=2)
    cnf = encode_cnf(cs)
    phases = build_phases(cnf, [0, 1], [2, 1])  # 0b10 and 0b01
    assert phases[cnf.var(0, 0)] is True
    assert phases[cnf.var(0, 1)] is False
    assert phases[cnf.var(1, 0)] is False
    assert phases[cnf.var(1, 1)] is True


# --------------------------------------------------------------- recovery


def solve_on_seed_phases(trace, classes, width):
    """Run the solver at ``width`` with the seed as phases: (outcome, values)."""
    cs = build_constraints(trace, width)
    cnf = encode_cnf(cs)
    codes = seed_codes(cs, classes)
    assert codes is not None
    out = CdclSolver(
        cnf.n_vars,
        cnf.clauses,
        initial_phases=build_phases(cnf, classes, codes),
    ).solve()
    values = decode_positions(cnf, out.model) if out.status == SAT else None
    return out, values


def test_recover_lion_exact_walk_finds_minimal_width():
    enc, trace = machine_trace("lion", 300, seed=12)
    result = recover_encodings(trace)
    assert result.assignment is not None
    assert result.assignment.width == 2
    # the trace forces width 2, so width 1 is never tried
    assert forced_width(trace) == 2
    assert [a.status for a in result.attempts] == ["seed"]
    cs = build_constraints(trace, 2)
    assert find_violation(cs, list(result.assignment.values)) is None
    # started below the bound, width 1 is refuted, not skipped, and the
    # answer is the same
    probed = recover_encodings(trace, width_start=1)
    assert [a.status for a in probed.attempts] == ["unsat", "seed"]
    assert probed.assignment == result.assignment


@pytest.mark.parametrize("name", ["dk27", "bbtas", "train4", "mc"])
def test_recover_under_banded_noise(name):
    enc, trace = machine_trace(name, 250, seed=2024, noise=NoiseModel.table3())
    result = recover_encodings(trace)
    assert result.assignment is not None
    width = result.assignment.width
    cs = build_constraints(trace, width)
    assert find_violation(cs, list(result.assignment.values)) is None
    assert width >= forced_width(trace)


def test_recovered_values_respect_identical_steps():
    enc, trace = machine_trace("dk27", 200, seed=7)
    result = recover_encodings(trace)
    values = result.assignment.values
    for k, inf in enumerate(trace.inferred):
        if inf.center == 0:
            assert values[k] == values[k + 1]
        else:
            hd = (values[k] ^ values[k + 1]).bit_count()
            assert max(1, inf.lo) <= hd <= min(result.assignment.width, inf.hi)


def test_width_cap_reported_when_probes_exhaust(monkeypatch):
    monkeypatch.setattr(recovery, "WIDTH_STEPS", 0)
    # three pairwise-distinct outputs cannot share the two width-1 codes
    trace = synthetic_trace(["00", "01", "10"], [1, 1], input_bits=1)
    result = recover_encodings(trace, width_start=1)
    assert result.assignment is None
    assert [a.status for a in result.attempts] == ["unsat"]


def test_zero_start_width_is_refused():
    with pytest.raises(ValueError, match="width_start must be at least 1"):
        recover_encodings(synthetic_trace(["0", "1"], [1]), width_start=0)


def test_infeasible_windows_are_skipped_then_solved():
    trace = synthetic_trace(["0", "1"], [6], input_bits=1)
    result = recover_encodings(trace, width_start=1)
    statuses = [a.status for a in result.attempts]
    assert statuses[:4] == ["infeasible-window"] * 4
    assert result.assignment is not None
    assert result.assignment.width == 5
    hd = (result.assignment.values[0] ^ result.assignment.values[1]).bit_count()
    assert hd == 5


def test_timeout_is_surfaced(monkeypatch):
    from fsmrecon import recovery as mod
    from fsmrecon.sat import SolveOutcome, SolverStats

    class FakeSolver:
        def __init__(self, *a, **k):
            pass

        def solve(self):
            return SolveOutcome(status="timeout", model=None, stats=SolverStats())

    monkeypatch.setattr(mod, "CdclSolver", FakeSolver)
    # one class for both ends of a step that moved: its one code breaks
    # the step's window, so the seed fails and the width goes to the solver
    trace = synthetic_trace(["0", "1"], [1])
    result = recover_encodings(trace, classes=[0, 0])
    assert result.assignment is None
    assert [(a.status, a.seeded) for a in result.attempts] == [("timeout", True)]


def test_exhausted_seed_search_falls_back_to_class_index_codes(monkeypatch):
    # the search gives up on its first node; this walk's class-index
    # codes then break a window, so the solver runs on their phases
    monkeypatch.setattr(recovery, "_SEARCH_BUDGET", 1)
    _, trace = machine_trace("dk27", 40, seed=3)
    classes = merge_hypothesis(trace)
    n_classes = max(classes) + 1
    width = forced_width(trace)
    hulls = class_hulls(build_constraints(trace, width), classes)
    assert search_class_codes(n_classes, width, hulls) is None
    phased = []

    def recording(cnf, classes, codes):
        phased.append(list(codes))
        return build_phases(cnf, classes, codes)

    monkeypatch.setattr(recovery, "build_phases", recording)
    result = recover_encodings(trace)
    attempt = result.attempts[-1]
    assert (attempt.status, attempt.seeded) == ("sat", True)
    assert phased == [list(range(n_classes))] * len(result.attempts)
    cs = build_constraints(trace, result.assignment.width)
    assert find_violation(cs, list(result.assignment.values)) is None


@pytest.mark.parametrize("width", [1, 13])
def test_no_hull_is_built_at_a_width_that_cannot_hold_the_guess(
    monkeypatch, width
):
    # three classes need width 2, and no code search runs past width 12
    def unreachable(*args):
        raise AssertionError("a seed search ran at an unusable width")

    monkeypatch.setattr(recovery, "class_hulls", unreachable)
    monkeypatch.setattr(recovery, "search_class_codes", unreachable)
    monkeypatch.setattr(recovery, "WIDTH_STEPS", 0)
    trace = synthetic_trace(["00", "01", "10"], [1, 1])
    result = recover_encodings(trace, width_start=width, classes=[0, 1, 2])
    # three outputs share no width-1 code, and width 13 holds them
    status = "unsat" if width == 1 else "sat"
    assert [(a.width, a.status, a.seeded) for a in result.attempts] == [
        (width, status, False)
    ]


def dumped_bases(result, prefix=""):
    """The file bases a dump holds: one per attempt that ran the solver."""
    return [
        f"{prefix}width{a.width}" for a in result.attempts if a.stats is not None
    ]


def test_dimacs_dump_writes_parseable_files(tmp_path):
    # train4 at this seed is not answered by its seed: the solver runs
    enc, trace = machine_trace("train4", 60, seed=1)
    result = recover_encodings(trace, dimacs_prefix=str(tmp_path / "r0_"))
    assert result.assignment is not None
    bases = dumped_bases(result, "r0_")
    assert bases
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == sorted(b + ext for b in bases for ext in (".cnf", ".vars"))
    for attempt in result.attempts:
        if attempt.stats is None:
            continue
        n_vars, clauses = parse_dimacs(
            (tmp_path / f"r0_width{attempt.width}.cnf").read_text()
        )
        assert n_vars == attempt.n_vars
        assert len(clauses) == attempt.n_clauses


def test_a_model_the_checker_refuses_raises(monkeypatch):
    # flip one bit of the decoded model: the independent checker must
    # refuse it rather than let a wrong answer through
    def corrupted(cnf, model):
        values = decode_positions(cnf, model)
        values[0] ^= 1
        return values

    monkeypatch.setattr(recovery, "decode_positions", corrupted)
    enc, trace = machine_trace("train4", 60, seed=1)
    with pytest.raises(recovery.ModelViolationError, match="breaks positions"):
        recover_encodings(trace)


def test_dimacs_dump_leaves_results_unchanged(tmp_path):
    # lion at this seed, started at width 1, is refuted there, then solved
    # by its seed
    enc, trace = machine_trace("lion", 300, seed=12)
    plain = recover_encodings(trace, width_start=1)
    dumped = recover_encodings(
        trace, width_start=1, dimacs_prefix=os.path.join(tmp_path, "")
    )
    assert [a.status for a in plain.attempts] == ["unsat", "seed"]
    assert dumped.assignment == plain.assignment
    assert [a.status for a in dumped.attempts] == [
        a.status for a in plain.attempts
    ]
    # only the refuted width reached the solver, so only it is dumped
    assert dumped_bases(dumped) == ["width1"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "width1.cnf", "width1.vars"
    ]
    assert dumped.attempts[-1].n_clauses == 0  # nothing encoded


def test_a_seed_answered_width_encodes_and_dumps_nothing(
    tmp_path, monkeypatch
):
    enc, trace = machine_trace("lion", 60, seed=3)
    calls = []

    def counting(cs):
        calls.append(cs.width)
        return encode_cnf(cs)

    monkeypatch.setattr(recovery, "encode_cnf", counting)
    result = recover_encodings(trace, dimacs_prefix=os.path.join(tmp_path, ""))
    assert [a.status for a in result.attempts] == ["seed"]
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, steps, seed, width_start",
    [("lion", 300, 12, 1), ("train4", 60, 1, None), ("lion", 60, 3, None)],
)
def test_a_dump_changes_no_attempt_field_but_the_timings(
    tmp_path, name, steps, seed, width_start
):
    enc, trace = machine_trace(name, steps, seed=seed)
    plain = recover_encodings(trace, width_start=width_start)
    dumped = recover_encodings(
        trace,
        width_start=width_start,
        dimacs_prefix=os.path.join(tmp_path, ""),
    )
    assert dumped.assignment == plain.assignment

    def fields(result):
        # stats hold wall-clock times
        return [dataclasses.replace(a, stats=None) for a in result.attempts]

    assert fields(dumped) == fields(plain)


def test_recovery_is_deterministic():
    enc, trace = machine_trace("bbtas", 180, seed=55, noise=NoiseModel.table3())
    a = recover_encodings(trace)
    b = recover_encodings(trace)
    assert a.assignment == b.assignment
    assert [x.status for x in a.attempts] == [x.status for x in b.attempts]

    def counters(result):
        return [
            None if x.stats is None else (x.stats.conflicts, x.stats.decisions)
            for x in result.attempts
        ]

    assert counters(a) == counters(b)


def test_seeding_yields_conflict_free_descent_at_scale():
    import random

    from fsmrecon.capture import Trace
    from fsmrecon.channel import midpoint

    # a deterministic 13-state machine with a unique output per state
    rng = random.Random(11)
    codes = rng.sample(range(16), 13)
    outputs = [format(i, "07b") for i in range(13)]
    delta = [[rng.randrange(13) for _ in range(8)] for _ in range(13)]
    stimulus = [rng.randrange(8) for _ in range(200)]
    seq = [0]
    for vec in stimulus:
        seq.append(delta[seq[-1]][vec])
    centers = [
        bin(codes[a] ^ codes[b]).count("1") for a, b in zip(seq, seq[1:])
    ]
    trace = Trace(
        input_bits=3,
        output_bits=7,
        stimulus=stimulus,
        outputs=[outputs[s] for s in seq],
        currents=[midpoint(c) for c in centers],
        seed=0,
    )
    classes = merge_hypothesis(trace)
    result = recover_encodings(trace)
    assert result.assignment is not None
    attempt = result.attempts[-1]
    assert attempt.status == "seed"
    assert attempt.seeded
    # the solver, given the seed as phases at that width, descends to the
    # same values without a conflict
    out, values = solve_on_seed_phases(trace, classes, attempt.width)
    assert out.status == SAT
    assert out.stats.conflicts == 0
    assert tuple(values) == result.assignment.values


# ------------------------------------------------- seed-solved widths

# short walks whose seed misses, so the solver answers them
_SOLVER_ANSWERED = {("shiftreg", "exact")}



def assert_seed_is_the_solver_answer(trace, classes, result) -> bool:
    """Every "seed" attempt returned what the solver would have under the
    state guess ``classes``: True when there was one."""
    seeded = [a for a in result.attempts if a.status == "seed"]
    for attempt in seeded:
        assert attempt.seeded and attempt.stats is None  # no solver ran
        out, values = solve_on_seed_phases(trace, classes, attempt.width)
        assert out.status == SAT
        assert out.stats.conflicts == 0
        assert tuple(values) == result.assignment.values
    return bool(seeded)


@pytest.mark.parametrize("kind", ["exact", "table3"])
@pytest.mark.parametrize("name", benchmarks.names())
def test_seed_answers_equal_solver_answers_on_bundled_machines(name, kind):
    noise = NoiseModel.exact() if kind == "exact" else NoiseModel.table3()
    enc, trace = machine_trace(name, 80, seed=5, noise=noise)
    _, extra = machine_trace(name, 40, seed=6, noise=noise)
    classes = merge_hypothesis(trace, [extra])
    result = recover_encodings(trace, classes=classes)
    assert result.assignment is not None
    assert assert_seed_is_the_solver_answer(trace, classes, result) == (
        (name, kind) not in _SOLVER_ANSWERED
    )


def random_walks(
    seed, n_states, input_bits, output_bits, kind, n_extra, tail_steps=0
):
    """1 + ``n_extra`` walks from reset of a seeded random complete Moore
    machine, captured under the ``kind`` channel, and one more of
    ``tail_steps`` steps when that is nonzero."""
    rng = random.Random(seed)
    machine = random_moore(rng, n_states, input_bits, output_bits)
    enc = assign_binary_encoding(machine)
    device = BlackBoxDevice(enc, NoiseModel(kind=kind), noise_seed=seed)
    walks = [
        run_trace(
            device,
            gen_stimulus(rng.randint(1, 60), input_bits, rng.randrange(2**32)),
            seed=k,
        )
        for k in range(1 + n_extra)
    ]
    if tail_steps:
        stimulus = gen_stimulus(tail_steps, input_bits, rng.randrange(2**32))
        walks.append(run_trace(device, stimulus, seed=1 + n_extra))
    return walks


random_walk_args = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_states=st.integers(min_value=1, max_value=6),
    input_bits=st.integers(min_value=1, max_value=2),
    output_bits=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["exact", "table3", "gaussian"]),
    n_extra=st.integers(min_value=0, max_value=2),
)


@given(**random_walk_args)
@settings(max_examples=100, deadline=None)
def test_seed_answers_equal_solver_answers_on_random_walks(**args):
    walks = random_walks(**args)
    classes = merge_hypothesis(walks[0], walks[1:])
    result = recover_encodings(walks[0], classes=classes)
    assert result.assignment is not None
    assert_seed_is_the_solver_answer(walks[0], classes, result)


@given(
    data=st.data(),
    max_width=st.integers(min_value=1, max_value=4),
    budget=st.one_of(st.integers(min_value=1, max_value=20), st.just(500_000)),
    **random_walk_args,
)
@settings(max_examples=100, deadline=None)
def test_a_width_is_seeded_exactly_when_it_holds_the_guess(
    data, max_width, budget, **args
):
    """A solver run is seeded, and a width answered by its seed, exactly
    between ``code_width`` of the class count and ``_SEED_MAX_WIDTH``
    (lowered here so that widths past it stay cheap to solve); where the
    hulls admit no codes, or the search gives up, the seed's codes are
    the class indices."""
    walks = random_walks(**args)
    trace = walks[0]
    n = trace.n_steps + 1
    guesses = [
        merge_hypothesis(trace, walks[1:]),
        data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
    ]
    for classes in guesses:
        n_classes = max(classes) + 1
        seeded = range(code_width(n_classes), max_width + 1)
        phased = []

        class Recording(CdclSolver):
            def __init__(self, *a, initial_phases=None, **kw):
                phased.append(initial_phases is not None)
                super().__init__(*a, initial_phases=initial_phases, **kw)

        with mock.patch.object(recovery, "_SEED_MAX_WIDTH", max_width), \
                mock.patch.object(recovery, "_SEARCH_BUDGET", budget), \
                mock.patch.object(recovery, "CdclSolver", Recording):
            result = recover_encodings(trace, width_start=1, classes=classes)
            for width in seeded:
                cs = build_constraints(trace, width)
                if cs.trivially_unsat:
                    continue
                codes = search_class_codes(
                    n_classes, width, class_hulls(cs, classes)
                )
                assert seed_codes(cs, classes) == (
                    list(range(n_classes)) if codes is None else codes
                )
        assert result.assignment is not None
        solved = [a for a in result.attempts if a.stats is not None]
        assert phased == [a.seeded for a in solved]
        for a in result.attempts:
            if a.status != "infeasible-window":
                assert a.seeded == (a.width in seeded)


def fold_outcome(trace, assignment):
    """The round's fold of ``assignment``: a graph, "conflict" or None."""
    if assignment is None:
        return None
    try:
        return build_partial_stg(trace, assignment)
    except StgConflictError:
        return "conflict"


@given(data=st.data(), **dict(random_walk_args, n_extra=st.integers(1, 2)))
@settings(max_examples=150, deadline=None)
def test_a_prior_changes_no_attempt_and_no_fold(data, **args):
    walks = random_walks(**args)
    trace, previous = walks[0], walks[1]
    classes = merge_hypothesis(trace, walks[1:])
    n = max(classes) + 1
    # the previous capture's codes: each class takes the code its first
    # position's output held there, an output it never showed a fresh one
    solved = recover_encodings(previous)
    assert solved.assignment is not None
    held = dict(zip(previous.outputs, solved.assignment.values))
    fresh = max(held.values()) + 1
    firsts = dict.fromkeys(classes)
    for p, c in enumerate(classes):
        if firsts[c] is None:
            firsts[c] = p
    prior = [held.get(trace.outputs[firsts[c]], fresh + c) for c in range(n)]
    plain = recover_encodings(trace, classes=classes)
    assert plain.assignment is not None
    width = plain.assignment.width
    priors = [
        prior,
        data.draw(st.permutations(prior)),
        prior[:-1] + prior[:1],  # a duplicate, when there are two classes
        [prior[0] | 1 << width] + prior[1:],  # too wide for the answer
    ]
    for codes in priors:
        got = recover_encodings(trace, classes=classes, prior=codes)
        assert [(a.width, a.status, a.seeded) for a in got.attempts] == [
            (a.width, a.status, a.seeded) for a in plain.attempts
        ]
        assert got.assignment.width == width
        assert fold_outcome(trace, got.assignment) == fold_outcome(
            trace, plain.assignment
        )
        cs = build_constraints(trace, width)
        assert find_violation(cs, list(got.assignment.values)) is None
        seed = [codes[c] for c in classes]
        if (
            len(set(codes)) == n
            and max(codes) < 1 << width
            and width <= _SEED_MAX_WIDTH
            and find_violation(cs, seed) is None
        ):
            # checked first at the answer's width, the prior is the answer
            assert got.attempts[-1].status == "seed"
            assert got.assignment.values == tuple(seed)
    for codes in (prior[:-1], prior + [fresh + n]):
        with pytest.raises(ValueError, match=f"expected {n} prior codes"):
            recover_encodings(trace, classes=classes, prior=codes)


def per_position_class_hulls(cs, classes):
    """``class_hulls`` intersecting every position's window in walk order:
    the reference the distinct-step version must match, order included."""
    hulls, dead = {}, set()
    for (w_lo, w_hi), a, b in zip(cs.windows, classes, classes[1:]):
        if w_hi == 0 or a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in dead:
            continue
        lo, hi = hulls.get(key, (0, cs.width))
        lo, hi = max(lo, w_lo), min(hi, w_hi)
        if lo > hi:
            hulls.pop(key, None)
            dead.add(key)
        else:
            hulls[key] = (lo, hi)
    return hulls


@given(data=st.data(), width=st.integers(min_value=1, max_value=6),
       **random_walk_args)
@settings(max_examples=100, deadline=None)
def test_class_hulls_match_the_per_position_reference(data, width, **args):
    walks = random_walks(**args)
    trace = walks[0]
    cs = build_constraints(trace, width)
    assert cs.windows == [(i.lo, min(width, i.hi)) for i in trace.inferred]
    n = trace.n_steps + 1
    # the state guess, and a coarse random guess that kills class pairs
    guesses = [
        merge_hypothesis(trace, walks[1:]),
        data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
    ]
    for classes in guesses:
        got = class_hulls(cs, classes)
        want = per_position_class_hulls(cs, classes)
        assert list(got.items()) == list(want.items())


@given(**random_walk_args)
@settings(max_examples=100, deadline=None)
def test_starting_at_the_forced_width_skips_only_refuted_widths(**args):
    walks = random_walks(**args)
    bound = forced_width(walks[0])
    classes = merge_hypothesis(walks[0], walks[1:])
    full = recover_encodings(walks[0], width_start=1, classes=classes)
    assert full.assignment is not None
    assert full.assignment.width >= bound
    # every width below the bound is refuted when it is tried ...
    assert all(
        a.status in ("unsat", "infeasible-window")
        for a in full.attempts
        if a.width < bound
    )
    # ... so starting at the bound returns the same answer
    fast = recover_encodings(walks[0], classes=classes)
    assert fast.assignment == full.assignment
    assert [a.width for a in fast.attempts] == [
        a.width for a in full.attempts if a.width >= bound
    ]


def test_hypothesis_stays_exact_on_long_unique_output_walks():
    # the validated-output-grouping path must carry captures far past the
    # merge-search ceiling, exactly, in linear time
    enc, trace = machine_trace("mc", 2600, seed=17)
    classes = merge_hypothesis(trace)
    truth = true_state_sequence(enc, trace.stimulus)
    pairs = {(t, c) for t, c in zip(truth, classes)}
    assert len(pairs) == len(set(truth)) == len(set(classes))


def test_oversized_low_information_walks_degrade_to_output_grouping():
    # non-unique outputs past the merge-search ceiling: the hypothesis
    # falls back to plain output grouping instead of hanging
    _, trace = machine_trace("shiftreg", 2600, seed=17)
    classes = merge_hypothesis(trace)
    groups = {}
    expected = [groups.setdefault(o, len(groups)) for o in trace.outputs]
    assert classes == expected


def test_oversized_pooled_walks_are_shed_before_the_search(monkeypatch):
    # pooled walks past the merge-search ceiling: the optional pooled
    # evidence goes first, and the trace alone still takes the search
    monkeypatch.setattr(recovery, "_MERGE_MAX_POSITIONS", 60)
    extra = tuple(machine_trace("shiftreg", 30, seed)[1] for seed in (1, 2))
    _, trace = machine_trace("shiftreg", 30, seed=3)
    assert not outputs_identify_states([trace, *extra])
    calls = []
    search = recovery.merge_hypothesis

    def spy(t, pooled=()):
        calls.append(len(pooled))
        return search(t, pooled)

    monkeypatch.setattr(recovery, "merge_hypothesis", spy)
    assert spy(trace, extra) == search(trace)
    assert calls == [2, 0]


# ------------------------------------------------ one-pass output grouping


def outputs_identify_states(walks):
    """The :class:`OutputEvidence` verdict over ``walks``, fed one by one."""
    evidence = recovery.OutputEvidence()
    for w in walks:
        evidence.add(w)
    return evidence.holds


def closure_output_grouping(trace, extra):
    """The union-find form of the output-grouping check: close the output
    partition of every pooled position under determinism, windows
    included, and keep each nonzero step's ends apart.  Classes of the
    trace's positions, or None when grouping by output fails."""
    outs, succs, nonzero = [], {}, []
    for w in (trace, *extra):
        off = len(outs)
        outs.extend(w.outputs)
        for k, inf in enumerate(w.inferred):
            succs[off + k] = {w.stimulus[k]: (off + k + 1, (inf.lo, inf.hi))}
            if inf.center > 0:
                nonzero.append(off + k)
    closed = Congruence(outs, succs, recovery._window_meet)
    head_of = {}
    for p, out in enumerate(outs):
        head = head_of.setdefault(out, p)
        if head != p and closed.merge(head, p) < 0:
            return None
    if any(closed.find(k) == closed.find(k + 1) for k in nonzero):
        return None
    return closed.classes(range(trace.n_steps + 1))


def evidence_search(trace, extra=()):
    """``merge_hypothesis`` with output grouping refused: the
    evidence-driven search alone.  Walks here stay under the position cap,
    so the search never re-enters ``merge_hypothesis``."""
    refused = recovery.OutputEvidence()
    refused.holds = False
    return merge_hypothesis(trace, extra, evidence=refused)


pooled_walk_args = dict(
    random_walk_args,
    n_states=st.integers(min_value=1, max_value=8),
    n_extra=st.integers(min_value=0, max_value=3),
)


def pooled_walk_examples(test):
    """Walks where only the window intersection, only the nonzero-step
    rule, or only the input in the key decides against output grouping."""
    for args in (
        dict(seed=5950, n_states=8, input_bits=1, output_bits=3,
             kind="table3", n_extra=2),
        dict(seed=74, n_states=2, input_bits=2, output_bits=1,
             kind="table3", n_extra=1),
        dict(seed=13, n_states=5, input_bits=2, output_bits=3,
             kind="gaussian", n_extra=1),
    ):
        test = example(**args)(test)
    return test


@given(**pooled_walk_args)
@pooled_walk_examples
@settings(max_examples=200, deadline=None)
def test_one_pass_output_grouping_agrees_with_the_closure(**args):
    walks = random_walks(**args)
    trace, extra = walks[0], walks[1:]
    reference = closure_output_grouping(trace, extra)
    assert outputs_identify_states(walks) == (reference is not None)
    classes = merge_hypothesis(trace, extra)
    if reference is not None:
        assert classes == reference == output_groups(trace.outputs)
    else:
        assert classes == evidence_search(trace, extra)


@given(data=st.data(), **pooled_walk_args)
@settings(max_examples=200, deadline=None)
def test_output_evidence_fed_walk_by_walk_matches_the_closure(data, **args):
    # in any order, each prefix gets the closure's verdict, so the verdict
    # never turns true again once false, and the last is the batch one
    walks = random_walks(**args)
    batch = outputs_identify_states(walks)
    walks = [walks[k] for k in data.draw(st.permutations(range(len(walks))))]
    evidence = recovery.OutputEvidence()
    verdicts = [evidence.add(w) for w in walks]
    for k, verdict in enumerate(verdicts):
        reference = closure_output_grouping(walks[0], walks[1 : k + 1])
        assert verdict == (reference is not None)
    assert verdicts == sorted(verdicts, reverse=True)
    assert verdicts[-1] == evidence.holds == batch


@pytest.mark.parametrize("name, holds", [("opus", True), ("lion", False)])
def test_given_evidence_stands_in_for_the_pooled_check(
    monkeypatch, name, holds
):
    # the guess reads the caller's verdict and scans no walk for it
    _, trace = machine_trace(name, 30, seed=3)
    extra = [machine_trace(name, 30, seed)[1] for seed in (1, 2)]
    evidence = recovery.OutputEvidence()
    for w in (*extra, trace):
        evidence.add(w)
    assert evidence.holds == holds
    expected = merge_hypothesis(trace, extra)
    monkeypatch.setattr(recovery.OutputEvidence, "_scan", None)
    assert merge_hypothesis(trace, extra, evidence=evidence) == expected


def copy_and_rescan_search(trace, extra):
    """The evidence-driven search with each trial merge run on a copy of
    the union-find, and the nonzero-step rule checked by rescanning every
    nonzero step after the closure instead of inside it."""
    walks = [trace, *extra]
    outs, succs, nonzero, offsets = [], {}, [], []
    for w in walks:
        off = len(outs)
        offsets.append(off)
        outs.extend(w.outputs)
        for k, inf in enumerate(w.inferred):
            succs[off + k] = {w.stimulus[k]: (off + k + 1, (inf.lo, inf.hi))}
            if inf.center > 0:
                nonzero.append(off + k)
    cong = Congruence(outs, succs, recovery._window_meet)

    def copied(c):
        twin = Congruence(outs, {r: dict(m) for r, m in c.edges.items()},
                          c.meet)
        twin.parent = list(c.parent)
        return twin

    def intact(c):
        return all(c.find(k) != c.find(k + 1) for k in nonzero)

    merged = all(cong.merge(0, off) >= 0 for off in offsets[1:]) and all(
        cong.merge(off + k, off + k + 1) >= 0
        for w, off in zip(walks, offsets)
        for k, inf in enumerate(w.inferred)
        if inf.center == 0
    )
    if not merged or not intact(cong):
        return output_groups(trace.outputs)
    red = [cong.find(0)]
    while True:
        red = [r for r in red if cong.find(r) == r]
        frontier = sorted(
            {cong.find(t) for r in red for t, _ in cong.edges.get(r, {}).values()}
            - set(red)
        )
        if not frontier:
            return cong.classes(range(trace.n_steps + 1))
        trials = []
        for bi, node in enumerate(frontier):
            found = False
            for ri, cand in enumerate(red):
                if outs[cand] != outs[node]:
                    continue
                trial = copied(cong)
                score = trial.merge(cand, node)
                if score >= 0 and intact(trial):
                    found = True
                    trials.append(((score, -bi, -ri), trial))
            if not found:
                red.append(node)
                break
        else:
            cong = max(trials, key=lambda kt: kt[0])[1]


@given(**pooled_walk_args)
@pooled_walk_examples
@settings(max_examples=200, deadline=None)
def test_evidence_search_matches_the_copy_and_rescan_search(**args):
    walks = random_walks(**args)
    trace, extra = walks[0], walks[1:]
    assert evidence_search(trace, extra) == copy_and_rescan_search(trace, extra)


@given(
    path=st.sampled_from(["fresh", "held", "shed"]),
    **dict(
        pooled_walk_args,
        output_bits=st.integers(min_value=1, max_value=2),
        n_extra=st.integers(min_value=0, max_value=4),
    ),
)
@example(path="held", seed=74, n_states=2, input_bits=2, output_bits=1,
         kind="table3", n_extra=1)
@example(path="shed", seed=3, n_states=8, input_bits=1, output_bits=1,
         kind="exact", n_extra=2)
@settings(max_examples=300, deadline=None)
def test_the_run_graph_guess_matches_the_position_graph_reference(
    path, **args
):
    # "held" passes the verdict the attack keeps across rounds; "shed" adds
    # a walk that carries the pool past the search's position ceiling, so
    # the pooled walks are dropped and the trace is judged alone; grouping
    # by output fails in both examples, so each reaches the search
    tail = recovery._MERGE_MAX_POSITIONS if path == "shed" else 0
    walks = random_walks(**args, tail_steps=tail)
    trace, extra = walks[0], walks[1:]
    evidence = None
    if path == "held":
        evidence = recovery.OutputEvidence()
        for w in (*extra, trace):
            evidence.add(w)
    assert merge_hypothesis(trace, extra, evidence) == (
        hypothesis_reference.merge_hypothesis(trace, extra, evidence)
    )


def assert_only_pooling_breaks_output_grouping(trace, extra, expected):
    for walk in (trace, extra):
        assert closure_output_grouping(walk, ()) is not None
    assert closure_output_grouping(trace, (extra,)) is None
    assert expected != output_groups(trace.outputs)
    assert merge_hypothesis(trace, (extra,)) == expected
    assert evidence_search(trace, (extra,)) == expected


def test_pooled_walks_with_two_successor_outputs_take_the_search():
    # root --1--> "10" in the trace, root --1--> "11" in the extra walk:
    # the "00" at position 2 shares the root's output, not its state
    trace = synthetic_trace(
        ["00", "01", "00", "10"], [1, 1, 1], stimulus=[0, 1, 1]
    )
    extra = synthetic_trace(["00", "11"], [1], stimulus=[1])
    assert_only_pooling_breaks_output_grouping(trace, extra, [0, 1, 2, 3])


def test_pooled_walks_with_disjoint_windows_take_the_search():
    # the root's input-1 step moves [1, 2] in the trace, [3, 5] in the
    # extra walk
    trace = synthetic_trace(
        ["00", "01", "00", "10"], [1, 1, 1], stimulus=[0, 1, 1]
    )
    extra = synthetic_trace(["00", "10"], [4], stimulus=[1])
    assert_only_pooling_breaks_output_grouping(trace, extra, [0, 1, 2, 3])


def test_pooled_nonzero_step_between_equal_outputs_takes_the_search():
    # the extra walk leaves the root under input 1 for another "00" state;
    # the trace's zero step on the same key then belongs to that state
    trace = synthetic_trace(
        ["00", "01", "00", "00"], [1, 1, 0], stimulus=[0, 1, 1]
    )
    extra = synthetic_trace(["00", "00"], [2], stimulus=[1])
    assert closure_output_grouping(trace, ()) is not None
    assert closure_output_grouping(trace, (extra,)) is None
    assert merge_hypothesis(trace, (extra,)) == [0, 1, 2, 2]
    assert evidence_search(trace, (extra,)) == [0, 1, 2, 2]


def test_pooled_walks_that_keep_output_grouping_return_it():
    trace = synthetic_trace(
        ["00", "01", "00", "10"], [1, 1, 2], stimulus=[0, 1, 1]
    )
    extra = synthetic_trace(["00", "10", "01"], [2, 1], stimulus=[1, 0])
    assert closure_output_grouping(trace, (extra,)) == [0, 1, 0, 2]
    assert merge_hypothesis(trace, (extra,)) == output_groups(trace.outputs)
