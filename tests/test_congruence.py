"""Congruence closure: the one union-find behind state grouping and merging."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import true_state_sequence
from fsmrecon.capture import BlackBoxDevice, gen_stimulus, run_trace
from fsmrecon.channel import NoiseModel
from fsmrecon.congruence import Congruence
from fsmrecon.fsm import MooreFsm, assign_binary_encoding, int_to_bits
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


def test_merging_a_copy_leaves_the_original_untouched():
    edges = {0: {0: (2, 0)}, 1: {0: (3, 1), 1: (3, 1)}}
    original = Congruence(["a", "a", "b", "b"], edges, keep_first)
    trial = original.copy()
    assert trial.merge(0, 1) == 2
    assert trial.classes(4) == [0, 0, 1, 1]
    assert trial.edges[0] == {0: (2, 0), 1: (3, 1)}
    assert original.classes(4) == [0, 1, 2, 3]
    assert original.edges == {0: {0: (2, 0)}, 1: {0: (3, 1), 1: (3, 1)}}


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
    machine = MooreFsm(
        input_bits,
        output_bits,
        [f"q{k}" for k in range(n_states)],
        rng.randrange(n_states),
        {
            (s, v): rng.randrange(n_states)
            for s in range(n_states)
            for v in range(1 << input_bits)
        },
        [int_to_bits(rng.randrange(1 << output_bits), output_bits)
         for _ in range(n_states)],
    )
    enc = assign_binary_encoding(machine)
    device = BlackBoxDevice(enc, NoiseModel.exact(), noise_seed=seed)
    traces = []
    acc = None
    for round_no in range(n_walks):
        steps = rng.randint(1, 4 * n_states * (1 << input_bits))
        stim = gen_stimulus(steps, input_bits, rng.randrange(2**32))
        trace = run_trace(device, stim, seed=round_no)
        values = tuple(
            enc.encodings[s].value for s in true_state_sequence(enc, stim)
        )
        graph = build_partial_stg(trace, EncodingAssignment(enc.width, values))
        acc = merge_rounds(acc, graph)
        traces.append(trace)
    verdict = replay_consistency(acc, traces)
    assert verdict.consistent
    assert verdict.skipped_steps == 0
    assert equivalent(acc, machine).counterexample is None
