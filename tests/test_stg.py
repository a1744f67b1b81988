"""Graph assembly tests: folding, per-round graphs, and cross-round merging."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import machine_trace, synthetic_trace
from merge_reference import ReferenceMergeGraph
from fsmrecon.channel import NoiseModel
from fsmrecon.fsm import MooreFsm, parse_kiss2, serialize_kiss2, transition_count
from fsmrecon.recovery import (
    EncodingAssignment,
    merge_hypothesis,
    recover_encodings,
)
from fsmrecon.stg import (
    MergeGraph,
    StgConflictError,
    build_partial_stg,
    merge_rounds,
    recovery_fraction,
)
from fsmrecon.verify import replay_consistency


def graph(input_bits, outputs, delta):
    """A hand-built recovered graph: one output bit, reset 0."""
    return MooreFsm(
        input_bits=input_bits,
        output_bits=1,
        states=[f"s{i}" for i in range(len(outputs))],
        reset=0,
        delta=delta,
        outputs=outputs,
    )


def replay(stg, stimulus):
    """Outputs of walking the graph from reset; raises KeyError on gaps."""
    outs = [stg.outputs[stg.reset]]
    s = stg.reset
    for vec in stimulus:
        s = stg.delta[(s, vec)]
        outs.append(stg.outputs[s])
    return outs


def recovered_graph(name, steps, seed, noise=None, pool_seeds=()):
    """Recover one round's graph; pool_seeds add grouping evidence the way
    consecutive attack rounds do, for machines one walk underdetermines."""
    pool = [
        machine_trace(name, steps, s, noise=noise)[1] for s in pool_seeds
    ]
    enc, trace = machine_trace(name, steps, seed, noise=noise)
    result = recover_encodings(trace, classes=merge_hypothesis(trace, pool))
    assert result.assignment is not None
    return trace, build_partial_stg(trace, result.assignment)


# ----------------------------------------------------------------- folding


def test_fold_assigns_dense_ids_with_reset_zero():
    trace = synthetic_trace(
        ["0", "1", "0", "1"], [1, 1, 1], input_bits=1, stimulus=[1, 1, 0]
    )
    assignment = EncodingAssignment(width=3, values=(5, 7, 5, 2))
    # values 5, 7, 2 are states 0, 1, 2 in order of first appearance
    assert build_partial_stg(trace, assignment) == graph(
        1, ["0", "1", "1"], {(0, 1): 1, (1, 1): 0, (0, 0): 2}
    )


def test_fold_rejects_wrong_arity():
    trace = synthetic_trace(["0", "1"], [1])
    with pytest.raises(ValueError):
        build_partial_stg(
            trace, EncodingAssignment(width=1, values=(0, 1, 0))
        )


def test_fold_rejects_output_clash():
    trace = synthetic_trace(["0", "1"], [1])
    with pytest.raises(StgConflictError):
        build_partial_stg(trace, EncodingAssignment(width=1, values=(0, 0)))


def two_pass_fold(trace, assignment):
    """The fold in two passes: first a state id per position, numbered by
    first appearance with every output checked, then ``delta`` from the
    ids.  Raises as the fold does."""
    if len(assignment.values) != trace.n_steps + 1:
        raise ValueError("assignment and trace differ in length")
    id_of_value, ids, output_of_id = {}, [], {}
    for value, out in zip(assignment.values, trace.outputs):
        sid = id_of_value.setdefault(value, len(id_of_value))
        ids.append(sid)
        if output_of_id.setdefault(sid, out) != out:
            raise StgConflictError("output clash")
    delta = {}
    for k in range(trace.n_steps):
        target = ids[k + 1]
        if delta.setdefault((ids[k], trace.stimulus[k]), target) != target:
            raise StgConflictError("nondeterministic fold")
    outputs = [output_of_id[sid] for sid in range(len(output_of_id))]
    return MooreFsm(
        input_bits=trace.input_bits,
        output_bits=trace.output_bits,
        states=[f"s{i}" for i in range(len(outputs))],
        reset=0,
        delta=delta,
        outputs=outputs,
    )


@given(data=st.data(), steps=st.integers(min_value=0, max_value=8))
@settings(max_examples=400, deadline=None)
def test_the_one_pass_fold_matches_the_two_pass_fold(data, steps):
    # few values, outputs and inputs: clashes and nondeterministic folds
    # are common, and an assignment one position off now and then
    trace = synthetic_trace(
        data.draw(st.lists(st.sampled_from("01"), min_size=steps + 1,
                           max_size=steps + 1)),
        [1] * steps,
        stimulus=data.draw(st.lists(st.integers(min_value=0, max_value=1),
                                    min_size=steps, max_size=steps)),
    )
    n = steps + data.draw(st.sampled_from([1, 1, 1, 1, 0, 2]))
    values = data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    )
    assignment = EncodingAssignment(width=2, values=tuple(values))
    try:
        expected = two_pass_fold(trace, assignment)
    except ValueError as exc:  # StgConflictError is a ValueError too
        with pytest.raises(ValueError) as raised:
            build_partial_stg(trace, assignment)
        assert raised.type is type(exc)
        return
    assert build_partial_stg(trace, assignment) == expected


# -------------------------------------------------------------- per round


def test_round_graph_replays_its_trace():
    trace, stg = recovered_graph("mc", 150, seed=5)
    assert replay(stg, trace.stimulus) == trace.outputs
    assert stg.state_count <= 4  # never more states than the machine has


def test_nondeterministic_fold_is_rejected():
    trace = synthetic_trace(
        ["0", "0", "1"], [0, 1], input_bits=1, stimulus=[0, 0]
    )
    # positions 0 and 1 share a value; under input 0 they reach different
    # fold ids, which no deterministic machine can do
    with pytest.raises(StgConflictError):
        build_partial_stg(trace, EncodingAssignment(width=1, values=(0, 0, 1)))


# ----------------------------------------------------------------- merging


def test_merge_into_empty_copies():
    _, stg = recovered_graph("lion", 60, seed=2, pool_seeds=(90, 91))
    merged = merge_rounds(None, stg)
    assert merged == stg
    merged.delta[(10**6, 0)] = 0  # key no real graph contains
    assert merged.delta != stg.delta  # a copy, not a view


def test_merge_unifies_resets_and_extends_coverage():
    t1, g1 = recovered_graph("dk27", 120, seed=31, pool_seeds=(90, 91, 92))
    t2, g2 = recovered_graph("dk27", 120, seed=77, pool_seeds=(90, 91, 92))
    merged = merge_rounds(g1, g2)
    assert transition_count(merged) >= max(
        transition_count(g1), transition_count(g2)
    )
    # both traces replay on the merged graph
    assert replay(merged, t1.stimulus) == t1.outputs
    assert replay(merged, t2.stimulus) == t2.outputs


def test_merge_converges_to_true_machine_size():
    acc = None
    for seed in (11, 22, 33):
        _, g = recovered_graph("mc", 200, seed=seed)
        acc = merge_rounds(acc, g)
    assert acc.state_count == 4
    assert transition_count(acc) == 4 * 8  # complete coverage
    assert recovery_fraction(transition_count(acc), 4, 3) == 1.0


def test_merge_rejects_reset_output_clash():
    a = graph(1, ["0"], {})
    b = graph(1, ["1"], {})
    with pytest.raises(StgConflictError):
        merge_rounds(a, b)


def test_merge_rejects_clash_found_by_closure():
    # identical first step, conflicting outputs one step deeper
    a = graph(1, ["0", "1"], {(0, 0): 1})
    b = graph(1, ["0", "0"], {(0, 0): 1})
    with pytest.raises(StgConflictError):
        merge_rounds(a, b)


def test_merge_closure_unifies_forced_chains():
    # graphs describe the same two-state flip machine with different ids
    a = graph(1, ["0", "1"], {(0, 1): 1, (1, 1): 0})
    b = graph(1, ["0", "1", "0"], {(0, 1): 1, (1, 1): 2, (2, 1): 1})
    merged = merge_rounds(a, b)
    # state 2 of b is forced onto state 0: the merge stays two states
    assert merged.state_count == 2
    assert merged.delta == {(0, 1): 1, (1, 1): 0}
    assert (merged.states, merged.reset) == (["s0", "s1"], 0)


def test_merge_rejects_arity_mismatch():
    a = graph(1, ["0"], {})
    b = graph(2, ["0"], {})
    with pytest.raises(StgConflictError):
        merge_rounds(a, b)


def test_merge_is_deterministic():
    _, g1 = recovered_graph("bbtas", 150, seed=3, pool_seeds=(90, 91, 92))
    _, g2 = recovered_graph(
        "bbtas", 150, seed=9, noise=NoiseModel.table3(),
        pool_seeds=(93, 94, 95),
    )
    assert merge_rounds(g1, g2) == merge_rounds(g1, g2)


@st.composite
def partial_graphs(draw, input_bits):
    """A recovered graph of 1-4 states with some transitions missing."""
    n = draw(st.integers(min_value=1, max_value=4))
    outputs = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    delta = {}
    for key in [(q, v) for q in range(n) for v in range(1 << input_bits)]:
        dst = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
        if dst is not None:
            delta[key] = dst
    return graph(input_bits, outputs, delta)


def closure_merge(a, b):
    """Two graphs merged by a plain union-find, or None on a clash.

    The states of both graphs are joined from their resets; whenever two
    states join, their successors under an input that both have join too
    (determinism), and two joined states with different outputs are a
    clash.  States are numbered breadth-first from the reset, inputs in
    ascending order.
    """
    off = a.state_count
    outputs = [*a.outputs, *b.outputs]
    succ = {}
    for (q, v), r in a.delta.items():
        succ.setdefault(q, {})[v] = r
    for (q, v), r in b.delta.items():
        succ.setdefault(off + q, {})[v] = off + r
    parent = list(range(len(outputs)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pending = [(a.reset, off + b.reset)]
    while pending:
        x, y = map(find, pending.pop())
        if x == y:
            continue
        if outputs[x] != outputs[y]:
            return None
        parent[y] = x
        into = succ.setdefault(x, {})
        for v, t in succ.pop(y, {}).items():
            if v in into:
                pending.append((into[v], t))
            else:
                into[v] = t
    order = {find(a.reset): 0}
    queue = list(order)
    delta = {}
    for x in queue:
        for v in sorted(succ.get(x, {})):
            t = find(succ[x][v])
            if t not in order:
                order[t] = len(order)
                queue.append(t)
            delta[order[x], v] = order[t]
    return MooreFsm(
        input_bits=a.input_bits,
        output_bits=a.output_bits,
        states=[f"s{i}" for i in range(len(queue))],
        reset=0,
        delta=delta,
        outputs=[outputs[x] for x in queue],
    )


@st.composite
def walks(draw, input_bits):
    """A trace with arbitrary outputs; replay reads no currents."""
    steps = draw(st.integers(min_value=0, max_value=6))
    return synthetic_trace(
        draw(st.lists(st.sampled_from("01"), min_size=steps + 1,
                      max_size=steps + 1)),
        [1] * steps,
        input_bits=input_bits,
        stimulus=draw(st.lists(
            st.integers(min_value=0, max_value=(1 << input_bits) - 1),
            min_size=steps, max_size=steps,
        )),
    )


@given(data=st.data(), input_bits=st.integers(min_value=1, max_value=2))
@settings(max_examples=300, deadline=None)
def test_a_merge_fails_every_replay_its_fold_fails(data, input_bits):
    # the merged graph is a homomorphic image of the fold: the fold's walk
    # maps onto it step by step, so each of the fold's replay issues recurs;
    # the merge itself is checked against a plain union-find merge
    acc = data.draw(st.none() | partial_graphs(input_bits))
    fold = data.draw(partial_graphs(input_bits))
    traces = data.draw(st.lists(walks(input_bits), min_size=1, max_size=3))
    verdict = replay_consistency(fold, traces)
    assume(not verdict.consistent)
    expected = fold if acc is None else closure_merge(acc, fold)
    try:
        merged = merge_rounds(acc, fold)
    except StgConflictError:
        assert expected is None
        return
    assert merged == expected
    issues = replay_consistency(merged, traces).issues
    assert set(verdict.issues) <= set(issues)


# ------------------------------------------------------------- merge graph


@st.composite
def walks_on(draw, g):
    """A trace that follows ``g`` from reset while ``g`` has the steps,
    with arbitrary outputs past the first one it lacks."""
    steps = draw(st.integers(min_value=0, max_value=6))
    stimulus = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << g.input_bits) - 1),
        min_size=steps, max_size=steps,
    ))
    state = g.reset
    outputs = [g.outputs[state]]
    for vec in stimulus:
        state = None if state is None else g.delta.get((state, vec))
        outputs.append(
            draw(st.sampled_from("01")) if state is None else g.outputs[state]
        )
    return synthetic_trace(
        outputs, [1] * steps, input_bits=g.input_bits, stimulus=stimulus
    )


def merge_graph_state(g):
    """Everything a MergeGraph holds, copied: its closure, its transition
    count, the stop point of every held trace and the graph it hands out."""
    c = g.cong
    return (
        list(c.parent),
        list(c.outputs),
        {root: dict(out) for root, out in c.edges.items()},
        g.transitions,
        list(g._resume),
        g.machine(),
    )


@given(data=st.data(), input_bits=st.integers(min_value=1, max_value=2))
@settings(max_examples=300, deadline=None)
def test_a_refused_merge_leaves_the_graph_and_its_replays_as_they_were(
    data, input_bits
):
    # each merge and replay also agrees with a plain union-find merge and
    # a replay of every trace from reset on the MooreFsm
    first = data.draw(partial_graphs(input_bits))
    traces = data.draw(st.lists(walks_on(first), max_size=3))
    acc = MergeGraph(first)
    assert acc.replays(traces)
    machine = first
    folds = data.draw(
        st.lists(partial_graphs(input_bits), min_size=1, max_size=3)
    )
    for fold in folds:
        before = merge_graph_state(acc)
        merged = closure_merge(machine, fold)
        if acc.merge(fold):
            assert merged is not None
            if acc.replays():
                assert replay_consistency(merged, traces).consistent
                assert acc.machine() == merged
                machine = merged
                continue
            assert not replay_consistency(merged, traces).consistent
            acc.undo()
        else:
            assert merged is None
        assert merge_graph_state(acc) == before


@given(data=st.data(), input_bits=st.integers(min_value=1, max_value=2))
@settings(max_examples=300, deadline=None)
def test_merge_matches_the_reference_merge(data, input_bits):
    # the same graphs into a MergeGraph and into the merge that built each
    # edge on its own: the same answers, and after every merge, refused
    # merge and undo the same closure, node for node and edge for edge
    acc, ref = MergeGraph(), ReferenceMergeGraph()
    folds = data.draw(
        st.lists(partial_graphs(input_bits), min_size=1, max_size=6)
    )
    for fold in folds:
        assert acc.merge(fold) == ref.merge(fold)
        assert merge_graph_state(acc) == merge_graph_state(ref)
        if data.draw(st.booleans()):
            acc.undo()
            ref.undo()
            assert merge_graph_state(acc) == merge_graph_state(ref)


def test_merge_matches_the_reference_merge_on_recovered_rounds():
    # folds of table3 walks of bbtas, some of them wrong, as an attack
    # merges them
    acc, ref = MergeGraph(), ReferenceMergeGraph()
    answers = []
    for seed in range(30):
        _, trace = machine_trace("bbtas", 60, seed, noise=NoiseModel.table3())
        assignment = recover_encodings(trace).assignment
        try:
            fold = build_partial_stg(trace, assignment)
        except StgConflictError:
            continue
        answers.append(acc.merge(fold))
        assert answers[-1] == ref.merge(fold)
        assert merge_graph_state(acc) == merge_graph_state(ref)
    assert any(answers) and not all(answers)


def test_an_empty_merge_graph_hands_out_its_first_graph_as_given():
    acc = MergeGraph()
    assert acc.machine() is None and acc.transitions == 0
    first = graph(1, ["0", "1"], {(0, 1): 1, (1, 0): 0})
    assert acc.merge(first)
    assert acc.machine() is first and acc.transitions == 2
    # a merge since: numbered breadth-first, so the first graph's state 1
    # is s2, after the state input 0 reaches
    assert acc.merge(graph(1, ["0", "1"], {(0, 0): 1}))
    assert acc.transitions == 3
    assert acc.machine() == graph(
        1, ["0", "1", "1"], {(0, 0): 1, (0, 1): 2, (2, 0): 0}
    )


def test_transitions_read_the_same_after_a_refused_merge_and_an_undo():
    # the count is read off the closure's edges, so taking a merge back
    # takes its transitions back with it
    acc = MergeGraph(graph(1, ["0", "1"], {(0, 1): 1, (1, 0): 0}))
    assert acc.transitions == 2
    # this reset emits 1 where the first graph's emits 0: a clash, whose
    # added nodes and edges are taken back
    assert not acc.merge(graph(1, ["1", "0"], {(0, 0): 1}))
    assert acc.transitions == 2
    assert acc.merge(graph(1, ["0", "1"], {(0, 0): 1}))
    assert acc.transitions == 3 == len(acc.machine().delta)
    acc.undo()
    assert acc.transitions == 2 == len(acc.machine().delta)
    assert MergeGraph().transitions == 0


# ---------------------------------------------------------------- fraction


def test_fraction_counts_against_full_transition_space():
    stg = graph(2, ["0"], {(0, 0): 0, (0, 1): 0})
    assert recovery_fraction(transition_count(stg), 4, 2) == 2 / 16
    assert recovery_fraction(0, 4, 2) == 0.0  # nothing recovered yet
    with pytest.raises(ValueError):
        recovery_fraction(transition_count(stg), 0, 2)


# ------------------------------------------------------------- kiss2 view


def test_recovered_graph_serializes_and_parses_back():
    acc = None
    for seed in (11, 22, 33):
        _, g = recovered_graph("mc", 200, seed=seed)
        acc = merge_rounds(acc, g)
    back = parse_kiss2(serialize_kiss2(acc))
    assert back == acc
