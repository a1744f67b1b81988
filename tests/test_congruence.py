"""Congruence closure: the one union-find behind state grouping and merging."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_moore, true_state_sequence
from fsmrecon.capture import BlackBoxDevice, gen_stimulus, run_trace
from fsmrecon.channel import NoiseModel
from fsmrecon.congruence import Congruence
from fsmrecon.fsm import assign_binary_encoding
from fsmrecon.recovery import EncodingAssignment, _window_meet
from fsmrecon.stg import build_partial_stg, merge_rounds
from fsmrecon.verify import equivalent, replay_consistency


def keep_first(kept, _):
    return kept


def test_output_clash_is_refused():
    assert Congruence(["0", "1"], {}, keep_first).merge(0, 1) == -1


def test_forced_successor_merges_count_in_the_score():
    # 0 and 1 both step to a "b" node under input 0; those two must merge,
    # and their successors under input 1 after them
    c = Congruence(
        ["a", "a", "b", "b", "c", "c"],
        {0: {0: (2, 0)}, 1: {0: (3, 0)}, 2: {1: (4, 0)}, 3: {1: (5, 0)}},
        keep_first,
    )
    assert c.merge(0, 1) == 3
    assert c.find(3) == 2
    assert c.find(5) == 4


def test_disjoint_windows_are_refused():
    c = Congruence(
        ["a", "a", "b", "b"],
        {0: {0: (2, (1, 2))}, 1: {0: (3, (3, 4))}},
        _window_meet,
    )
    assert c.merge(0, 1) == -1


def test_overlapping_windows_intersect():
    c = Congruence(
        ["a", "a", "b", "b"],
        {0: {0: (2, (1, 2))}, 1: {0: (3, (2, 3))}},
        _window_meet,
    )
    assert c.merge(0, 1) == 2
    assert c.edges[0] == {0: (2, (2, 2))}


def test_smaller_id_becomes_root_in_either_order():
    for a, b in ((1, 3), (3, 1)):
        c = Congruence(["x"] * 4, {3: {0: (0, 7)}}, keep_first)
        assert c.merge(a, b) == 1
        assert c.find(3) == c.find(1) == 1
        assert c.edges == {1: {0: (0, 7)}}
        assert c.classes(4) == [0, 1, 2, 1]


def snapshot(c):
    return list(c.parent), {r: dict(m) for r, m in c.edges.items()}


@pytest.mark.parametrize(
    "edges,score",
    [
        # 0 and 1 merge, then their successors 2 and 3, which have no edges
        ({0: {0: (2, (1, 1))}, 1: {0: (3, (1, 2)), 1: (3, (1, 1))}}, 2),
        # 0 and 1 merge, then 2 and 3 clash on the window of their input-1
        # step: refused with the first two unions done
        ({0: {0: (2, (1, 1))}, 1: {0: (3, (1, 1))},
          2: {1: (4, (1, 1))}, 3: {1: (5, (2, 2))}}, -1),
    ],
    ids=["merged", "refused-partway"],
)
def test_undo_restores_parent_and_edges_exactly(edges, score):
    c = Congruence(["a", "a", "b", "b", "c", "c"], edges, _window_meet)
    before = snapshot(c)
    assert c.merge(0, 1) == score
    assert c.find(1) == 0 and c.find(3) == 2
    c.undo()
    assert snapshot(c) == before
    c.undo()
    assert snapshot(c) == before


@pytest.mark.parametrize(
    "edges",
    [
        # 1's step moves onto 0 and closes a loop that moves distance 1
        {1: {0: (0, (1, 1))}},
        # 0's own step leads into 1, which has no out-edges
        {0: {0: (1, (2, 2))}},
    ],
    ids=["moved-edge", "into-edgeless-root"],
)
def test_a_nonzero_self_loop_is_refused_only_under_the_loop_label(edges):
    def fresh():
        return {src: dict(m) for src, m in edges.items()}

    looped = Congruence(["a", "a"], fresh(), _window_meet, loop=(0, 0))
    assert looped.merge(0, 1) == -1
    # the round merge passes no loop label, so the same union stands
    assert Congruence(["a", "a"], fresh(), _window_meet).merge(0, 1) == 1


def test_a_zero_self_loop_is_accepted():
    c = Congruence(["a", "a"], {1: {0: (0, (0, 0))}}, _window_meet, (0, 0))
    assert c.merge(0, 1) == 1
    assert c.edges == {0: {0: (0, (0, 0))}}


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_states=st.integers(min_value=1, max_value=6),
    input_bits=st.integers(min_value=1, max_value=2),
    output_bits=st.integers(min_value=1, max_value=2),
    n_walks=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_merging_true_folds_reproduces_the_machine(
    seed, n_states, input_bits, output_bits, n_walks
):
    # state_count is deliberately not compared with n_states: merging only
    # identifies states through input paths shared from reset, so correct
    # folds can merge into more states than the machine has
    rng = random.Random(seed)
    machine = random_moore(rng, n_states, input_bits, output_bits)
    enc = assign_binary_encoding(machine)
    device = BlackBoxDevice(enc, NoiseModel.exact(), noise_seed=seed)
    traces = []
    acc = None
    for round_no in range(n_walks):
        steps = rng.randint(1, 4 * n_states * (1 << input_bits))
        stim = gen_stimulus(steps, input_bits, rng.randrange(2**32))
        trace = run_trace(device, stim, seed=round_no)
        values = tuple(
            enc.encodings[s] for s in true_state_sequence(enc, stim)
        )
        graph = build_partial_stg(trace, EncodingAssignment(enc.width, values))
        acc = merge_rounds(acc, graph)
        traces.append(trace)
    verdict = replay_consistency(acc, traces)
    assert verdict.consistent
    assert verdict.skipped_steps == 0
    assert equivalent(acc, machine).counterexample is None
