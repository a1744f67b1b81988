"""Constraint construction and the independent popcount evaluator."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import encoded_fixture, synthetic_trace
from fsmrecon.capture import BlackBoxDevice, gen_stimulus, run_trace
from fsmrecon.channel import NoiseModel
from fsmrecon.constraints import (
    ConstraintSet,
    build_constraints,
    find_violation,
    forced_width,
)
from fsmrecon.fsm import MooreFsm, assign_binary_encoding, int_to_bits
from fsmrecon.verify import brute_force_min_width


def test_consecutive_constraints_follow_the_channel():
    trace = synthetic_trace(["0", "0", "1", "1"], [0, 2, 1])
    cs = build_constraints(trace, width=3)
    assert cs.windows == [
        (0, 0),
        (1, 3),
        (1, 2),  # lo floored at 1 for center 1
    ]
    assert cs.n_positions == 4
    assert not cs.trivially_unsat


def test_window_upper_bound_clamps_to_width():
    trace = synthetic_trace(["0", "1"], [3])
    cs = build_constraints(trace, width=3)
    assert cs.windows == [(2, 3)]


def test_empty_window_marks_trivially_unsat_but_is_recorded():
    trace = synthetic_trace(["0", "1"], [3])
    cs = build_constraints(trace, width=1)
    assert cs.trivially_unsat
    assert cs.windows == [(2, 1)]
    assert find_violation(cs, [0, 1]) is not None  # no assignment can satisfy an empty window


def test_distinct_pairs_cover_exactly_output_inequality():
    trace = synthetic_trace(["00", "01", "00", "10"], [1, 1, 1])
    cs = build_constraints(trace, width=2)
    assert cs.groups == [0, 1, 0, 2]  # dense ids, first-seen order
    # with the chain left out, a clash at exactly one pair is reported
    # iff that pair's outputs differ
    bare = ConstraintSet(width=2, windows=[(0, 2)] * 3, groups=cs.groups)
    distinct = set()
    for i, j in itertools.combinations(range(4), 2):
        others = iter(range(1, 4))
        values = [0 if k in (i, j) else next(others) for k in range(4)]
        got = find_violation(bare, values)
        if got is not None:
            assert got == (i, j)
            distinct.add((i, j))
    assert distinct == {(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)}
    # the equal-output pair (0, 2) is not constrained apart
    assert (0, 2) not in distinct


def test_distinct_pairs_are_deduplicated_unordered():
    trace = synthetic_trace(["0", "1", "0", "1"], [1, 1, 1])
    cs = build_constraints(trace, width=2)
    # the set keeps apart each unordered position pair whose output groups
    # differ, and counts each such pair once
    pairs = [
        (i, j)
        for i, j in itertools.combinations(range(cs.n_positions), 2)
        if cs.groups[i] != cs.groups[j]
    ]
    assert pairs == [(0, 1), (0, 3), (1, 2), (2, 3)]  # ascending
    assert len(pairs) == cs.counts()["distinct"]
    # with the windows left out, each is the clash reported for an
    # assignment where only that pair shares a value
    bare = ConstraintSet(width=2, windows=[(0, 2)] * 3, groups=cs.groups)
    for i, j in pairs:
        others = iter(range(1, 4))
        values = [0 if k in (i, j) else next(others) for k in range(4)]
        assert find_violation(bare, values) == (i, j)


@pytest.mark.parametrize(
    "n_outputs,want",
    [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (13, 4)],
)
def test_minimal_width_from_distinct_output_count(n_outputs, want):
    """All outputs distinct, so no step splits a group: the bound is
    ceil(log2) of the output count."""
    outputs = [format(k % n_outputs, "04b") for k in range(n_outputs)]
    trace = synthetic_trace(outputs, [1] * (len(outputs) - 1))
    assert forced_width(trace) == want


@pytest.mark.parametrize(
    "outputs,centers,want",
    [
        (["0"], [], 1),
        (["0", "1"], [1], 1),
        # a nonzero step inside one output group needs a third code
        (["0", "0", "1"], [1, 1], 2),
        # a zero step holds one value, so it splits nothing
        (["0", "0", "1"], [0, 1], 1),
        # a group split by two steps still needs only two codes of its own
        (["0", "0", "0"], [1, 1], 1),
        (["0", "0", "0", "1"], [1, 1, 2], 2),
        # steps between groups add nothing to the group count
        (["0", "1", "0", "1"], [1, 2, 1], 1),
        # two split groups among three: 3 + 2 codes
        (["00", "00", "01", "01", "10"], [2, 1, 1, 1], 3),
        (["00", "00", "01", "10", "11"], [1, 1, 1, 1], 3),
        (["00", "01", "10", "11"], [1, 1, 1], 2),
    ],
)
def test_forced_width_counts_output_groups_a_step_splits(outputs, centers, want):
    trace = synthetic_trace(outputs, centers)
    assert forced_width(trace) == want


@st.composite
def small_traces(draw):
    """Acceptance criterion 5's instances: N+1 <= 5 positions, 1-2 output
    bits, centers 0-3, zero only between equal outputs."""
    out_bits = draw(st.integers(1, 2))
    codes = draw(
        st.lists(st.integers(0, (1 << out_bits) - 1), min_size=2, max_size=5)
    )
    outputs = [format(c, f"0{out_bits}b") for c in codes]
    centers = [
        draw(st.integers(0 if a == b else 1, 3))
        for a, b in zip(outputs, outputs[1:])
    ]
    return synthetic_trace(outputs, centers)


@settings(max_examples=200, deadline=None)
@given(small_traces())
def test_forced_width_never_exceeds_the_enumerated_minimum(trace):
    cap = 4
    w_star = brute_force_min_width(build_constraints(trace, cap), cap)
    if w_star is not None:
        assert forced_width(trace) <= w_star


def test_counts_summary():
    trace = synthetic_trace(["0", "0", "1"], [0, 2])
    cs = build_constraints(trace, width=2)
    assert cs.counts() == {"identical": 1, "hd_range": 1, "distinct": 2}


def test_counts_distinct_equals_pairwise_count():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        groups = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
        cs = ConstraintSet(width=2, windows=[(0, 2)] * (n - 1), groups=groups)
        pairwise = sum(
            groups[i] != groups[j] for i, j in itertools.combinations(range(n), 2)
        )
        assert cs.counts()["distinct"] == pairwise


def test_chain_is_linear_in_trace_length():
    trace = synthetic_trace([format(k % 4, "02b") for k in range(301)], [1] * 300)
    cs = build_constraints(trace, width=2)
    assert len(cs.windows) == trace.n_steps
    assert cs.groups == [k % 4 for k in range(301)]
    assert cs.counts() == {"identical": 0, "hd_range": 300, "distinct": 33_975}


def test_zero_width_is_refused():
    with pytest.raises(ValueError, match="width must be >= 1"):
        build_constraints(synthetic_trace(["0", "1"], [1]), 0)


def test_window_count_must_be_one_less_than_positions():
    for n_windows in (0, 1, 3):
        with pytest.raises(ValueError, match="expected 2 windows for 3 positions"):
            ConstraintSet(width=1, windows=[(0, 1)] * n_windows, groups=[0, 1, 0])
    assert ConstraintSet(width=1, windows=[(0, 1)] * 2, groups=[0, 1, 0])


# ---------------------------------------------------------------------------
# evaluator
# ---------------------------------------------------------------------------


def test_violation_witness_is_the_first_broken_pair():
    trace = synthetic_trace(["0", "0", "1", "1"], [0, 2, 1])
    cs = build_constraints(trace, width=2)
    assert cs.windows == [(0, 0), (1, 2), (1, 2)]
    assert find_violation(cs, [0, 0, 3, 2]) is None
    # a broken step k is reported as (k, k+1)
    assert find_violation(cs, [0, 1, 3, 2]) == (0, 1)
    assert find_violation(cs, [0, 0, 0, 0]) == (1, 2)
    assert find_violation(cs, [0, 0, 3, 3]) == (2, 3)
    # the steps are checked before the groups: this one also clashes at (0, 2)
    assert find_violation(cs, [1, 1, 1, 2]) == (1, 2)
    # a group clash names the first position holding the value
    assert find_violation(cs, [0, 0, 1, 0]) == (0, 3)


def test_evaluator_rejects_malformed_assignments():
    trace = synthetic_trace(["0", "1"], [1])
    cs = build_constraints(trace, width=1)
    with pytest.raises(ValueError, match="expected 2 values"):
        find_violation(cs, [0])
    with pytest.raises(ValueError, match="fit width"):
        find_violation(cs, [0, 2])


@pytest.mark.parametrize("name", ["lion", "train4", "dk27", "bbtas", "mc"])
@pytest.mark.parametrize("kind", ["exact", "table3"])
def test_true_encodings_satisfy_constraints_at_true_width(name, kind):
    """The ground-truth walk always sits inside the inference windows."""
    enc = encoded_fixture(name)
    m = enc.machine
    device = BlackBoxDevice(enc, NoiseModel(kind=kind), noise_seed=101)
    stim = gen_stimulus(300, m.input_bits, seed=55)
    trace = run_trace(device, stim, seed=55)
    cs = build_constraints(trace, width=enc.width)
    state = m.reset
    values = [enc.encodings[state]]
    for v in stim:
        state = m.delta[(state, v)]
        values.append(enc.encodings[state])
    assert find_violation(cs, values) is None


def test_true_encodings_satisfy_constraints_past_the_top_band():
    """A 129-state machine (width 8) stepping 127 -> 128 flips all eight
    register bits; the top band reads it, and its window must admit 8."""
    n = 129
    m = MooreFsm(
        input_bits=1,
        output_bits=8,
        states=[f"s{k}" for k in range(n)],
        reset=126,
        delta={(s, v): (s + 1) % n for s in range(n) for v in (0, 1)},
        outputs=[int_to_bits(k, 8) for k in range(n)],
    )
    enc = assign_binary_encoding(m)
    assert enc.width == 8
    trace = run_trace(BlackBoxDevice(enc, NoiseModel.exact(), 0), [0, 0], 0)
    cs = build_constraints(trace, width=8)
    assert cs.windows[1] == (5, 8)
    assert find_violation(cs, [126, 127, 128]) is None


def _pairwise_clash(groups, values):
    """Reference: some pair in different groups holds one value."""
    return any(
        groups[i] != groups[j] and values[i] == values[j]
        for i, j in itertools.combinations(range(len(values)), 2)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda width: st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, (1 << width) - 1)),
            min_size=1,
            max_size=10,
        ).map(lambda rows: (width, rows))
    )
)
def test_partition_check_matches_pairwise_reference(case):
    width, rows = case
    groups = [g for g, _ in rows]
    values = [v for _, v in rows]
    cs = ConstraintSet(
        width=width, windows=[(0, width)] * (len(rows) - 1), groups=groups
    )
    got = find_violation(cs, values)
    assert (got is None) == (not _pairwise_clash(groups, values))
    if got is not None:
        i, j = got
        assert i < j
        assert groups[i] != groups[j]
        assert values[i] == values[j]
