"""Congruence closure: the one union-find behind state grouping and merging."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_moore, true_state_sequence
from fsmrecon.capture import BlackBoxDevice, gen_stimulus, run_trace
from fsmrecon.channel import InferredHd, NoiseModel
from fsmrecon.congruence import Congruence
from fsmrecon.fsm import assign_binary_encoding
from fsmrecon.recovery import EncodingAssignment, _run_graph, _window_meet
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
        assert c.classes(range(4)) == [0, 1, 2, 1]


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


@st.composite
def edge_maps(draw, sources, targets):
    """At most one edge per input bit from each source node."""
    edges = {}
    for src in sources:
        for vec in (0, 1):
            dst = draw(st.none() | st.sampled_from(targets))
            if dst is not None:
                edges.setdefault(src, {})[vec] = (dst, vec)
    return edges


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_added_nodes_truncate_back_to_the_structure_before(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    outputs = data.draw(st.lists(st.sampled_from("ab"), min_size=n,
                                 max_size=n))
    c = Congruence(list(outputs), data.draw(edge_maps(range(n), range(n))),
                   keep_first)
    node = st.integers(min_value=0, max_value=n - 1)
    for a, b in data.draw(st.lists(st.tuples(node, node), max_size=3)):
        if c.merge(a, b) < 0:
            c.undo()
    before = snapshot(c)
    classes = c.classes(range(n))
    k = data.draw(st.integers(min_value=1, max_value=4))
    grown = data.draw(st.lists(st.sampled_from("ab"), min_size=k, max_size=k))
    # the new nodes step among themselves and into the old ones
    c.add(grown, data.draw(edge_maps(range(n, n + k), range(n + k))))
    assert c.outputs == outputs + grown
    assert c.classes(range(n)) == classes
    assert [c.find(x) for x in range(n, n + k)] == list(range(n, n + k))
    # a merge that joins old and new nodes, taken back
    c.merge(data.draw(node), data.draw(st.integers(n, n + k - 1)))
    c.undo()
    c.truncate(n)
    assert snapshot(c) == before
    assert c.outputs == outputs


def closed_edges(c, name=lambda root: root):
    """Each root's edges, targets named by ``name`` of their root."""
    return {
        name(r): {vec: (name(c.find(t)), label) for vec, (t, label) in m.items()}
        for r, m in c.edges.items()
        if c.find(r) == r and m
    }


WINDOWS = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_one_closure_pass_matches_one_merge_per_pair(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    outputs = data.draw(st.lists(st.sampled_from("ab"), min_size=n,
                                 max_size=n))
    edges = {}
    for src in range(n):
        for vec in (0, 1):
            if data.draw(st.booleans()):
                edges.setdefault(src, {})[vec] = (
                    data.draw(st.integers(0, n - 1)),
                    data.draw(st.sampled_from(WINDOWS)),
                )
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), min_size=1,
                               max_size=4))

    def fresh():
        return Congruence(list(outputs), {s: dict(m) for s, m in
                                          edges.items()},
                          _window_meet, loop=(0, 0))

    one_pass, in_turn = fresh(), fresh()
    accepted = one_pass.merge_all(pairs) >= 0
    assert accepted == all(in_turn.merge(a, b) >= 0 for a, b in pairs)
    if accepted:
        assert [one_pass.find(x) for x in range(n)] == [
            in_turn.find(x) for x in range(n)
        ]
        assert closed_edges(one_pass) == closed_edges(in_turn)
        one_pass.undo()
        assert one_pass.parent == list(range(n))
        assert closed_edges(one_pass) == closed_edges(fresh())


# readings a step may carry: exact zero, a zero whose window leaves 0 out
# (its run loops on a nonzero step), and nonzero windows, one reaching 0
READINGS = [InferredHd(0, 0, 0), InferredHd(0, 1, 1), InferredHd(1, 0, 1),
            InferredHd(1, 1, 2), InferredHd(2, 2, 3)]

step_lists = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, len(READINGS) - 1),
              st.sampled_from("ab")),
    max_size=8,
)


def as_walks(walks):
    """(first output, [(input, reading index, output after)]) per walk."""
    return [
        SimpleNamespace(
            outputs=[first] + [out for _, _, out in steps],
            stimulus=[vec for vec, _, _ in steps],
            inferred=[READINGS[r] for _, r, _ in steps],
        )
        for first, steps in walks
    ]


def position_graph(walks):
    """The guess's graph as it was built before zero-step runs: a node per
    position, then one ``merge`` per reset join and per zero step."""
    outs, succs, pairs, zero = [], {}, [], []
    for w in walks:
        off = len(outs)
        if off:
            pairs.append((0, off))
        outs.extend(w.outputs)
        for k, (vec, inf) in enumerate(zip(w.stimulus, w.inferred)):
            succs[off + k] = {vec: (off + k + 1, (inf.lo, inf.hi))}
            if inf.center == 0:
                zero.append((off + k, off + k + 1))
    cong = Congruence(outs, succs, _window_meet, loop=(0, 0))
    if any(cong.merge(a, b) < 0 for a, b in pairs + zero):
        return None
    return cong


@given(st.lists(st.tuples(st.sampled_from("ab"), step_lists), min_size=1,
                max_size=4))
# refused on an output, on a window, and on a nonzero self-loop
@example([("a", [(0, 0, "b")])])
@example([("a", [(0, 2, "a")]), ("a", [(0, 4, "a")])])
@example([("a", [(0, 1, "a")])])
@settings(max_examples=300, deadline=None)
def test_the_run_graph_closes_as_the_position_graph_does(walks):
    walks = as_walks(walks)
    by_position = position_graph(walks)
    built = _run_graph(walks)
    assert (built is None) == (by_position is None)
    if built is None:
        return
    runs, node_of = built
    assert len(node_of) == len(by_position.parent)
    # the same classes, each named by the run of its least position
    assert [runs.find(v) for v in node_of] == [
        node_of[by_position.find(p)] for p in range(len(node_of))
    ]
    assert closed_edges(runs) == closed_edges(by_position,
                                              node_of.__getitem__)


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
