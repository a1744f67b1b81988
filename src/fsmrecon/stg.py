"""Recovered graphs: folding one round's recovered values into a partial
Moore machine and merging those machines across rounds.

A recovered graph is a :class:`~fsmrecon.fsm.MooreFsm` with states
``s0 .. s{n-1}``, reset 0 and a possibly incomplete ``delta``.  Positions
sharing a recovered register value fold into one state.  A fold that
produces nondeterministic transitions is evidence the round's solution
identified positions it should not have, and the round is rejected.
Merging walks two graphs from their resets, unifying matched states and
propagating forced identifications (congruence closure); an output clash
during closure likewise rejects the round.
"""

from __future__ import annotations

from .capture import Trace
from .congruence import Congruence
from .fsm import MooreFsm, transition_count
from .recovery import EncodingAssignment


class StgConflictError(ValueError):
    """The round's graph contradicts itself or the accumulated graph."""


def _graph(
    input_bits: int,
    output_bits: int,
    outputs: list[str],
    delta: dict[tuple[int, int], int],
) -> MooreFsm:
    """A recovered graph: states ``s0 .. s{n-1}``, reset 0."""
    return MooreFsm(
        input_bits=input_bits,
        output_bits=output_bits,
        states=[f"s{i}" for i in range(len(outputs))],
        reset=0,
        delta=delta,
        outputs=outputs,
    )


def fold_states(trace: Trace, assignment: EncodingAssignment) -> list[int]:
    """State id per position: equal recovered values fold together.

    Ids are dense in order of first appearance, so position 0 (the reset
    state) always folds to id 0.
    """
    if len(assignment.values) != trace.n_steps + 1:
        raise ValueError(
            f"assignment covers {len(assignment.values)} positions, "
            f"trace has {trace.n_steps + 1}"
        )
    id_of_value: dict[int, int] = {}
    ids = []
    output_of_id: dict[int, str] = {}
    for pos, value in enumerate(assignment.values):
        sid = id_of_value.setdefault(value, len(id_of_value))
        ids.append(sid)
        out = trace.outputs[pos]
        prev = output_of_id.setdefault(sid, out)
        if prev != out:
            # cannot happen for evaluator-checked solutions: differing
            # outputs always carry a distinctness constraint
            raise StgConflictError(
                f"positions with value {value} emit both {prev!r} and {out!r}"
            )
    return ids


def build_partial_stg(trace: Trace, assignment: EncodingAssignment) -> MooreFsm:
    """Fold a solved trace into a graph; reject nondeterministic folds."""
    ids = fold_states(trace, assignment)
    outputs = [""] * (max(ids) + 1)
    for pos, sid in enumerate(ids):
        outputs[sid] = trace.outputs[pos]
    delta: dict[tuple[int, int], int] = {}
    for k in range(trace.n_steps):
        key = (ids[k], trace.stimulus[k])
        target = ids[k + 1]
        existing = delta.setdefault(key, target)
        if existing != target:
            raise StgConflictError(
                f"state {key[0]} under input {key[1]} reaches both "
                f"{existing} and {target}: over-identified positions"
            )
    return _graph(trace.input_bits, trace.output_bits, outputs, delta)


def merge_rounds(acc: MooreFsm | None, rnd: MooreFsm) -> MooreFsm:
    """Merge a round's graph into the accumulator.

    Both graphs observe the same device from reset, so their reset states
    unify; every forced identification propagates through shared transitions.
    Raises StgConflictError when closure demands two different outputs in
    one state — the round (or a previous one) folded wrongly.  The result
    numbers its states breadth-first from the reset.
    """
    if acc is None:
        return _graph(
            rnd.input_bits, rnd.output_bits, list(rnd.outputs), dict(rnd.delta)
        )
    if (acc.input_bits, acc.output_bits) != (rnd.input_bits, rnd.output_bits):
        raise StgConflictError("graphs disagree on input/output arity")

    # edges carry no label worth combining, but a label must not be None:
    # ``meet`` answers None for a contradiction
    offset = acc.state_count
    edges: dict[int, dict[int, tuple[int, bool]]] = {}
    for (src, vec), dst in acc.delta.items():
        edges.setdefault(src, {})[vec] = (dst, True)
    for (src, vec), dst in rnd.delta.items():
        edges.setdefault(src + offset, {})[vec] = (dst + offset, True)
    cong = Congruence(acc.outputs + rnd.outputs, edges, lambda kept, _: kept)
    # both resets name the same device state
    if cong.merge(acc.reset, rnd.reset + offset) < 0:
        raise StgConflictError("closure merges states with different outputs")

    # renumber reachable classes by breadth-first order from the reset
    find = cong.find
    root0 = find(acc.reset)
    order: dict[int, int] = {root0: 0}
    queue = [root0]
    outputs = [cong.outputs[root0]]
    delta: dict[tuple[int, int], int] = {}
    qi = 0
    while qi < len(queue):
        root = queue[qi]
        qi += 1
        out_edges = cong.edges.get(root, {})
        for vec in sorted(out_edges):
            dst = find(out_edges[vec][0])
            if dst not in order:
                order[dst] = len(order)
                outputs.append(cong.outputs[dst])
                queue.append(dst)
            delta[(order[root], vec)] = order[dst]
    return _graph(acc.input_bits, acc.output_bits, outputs, delta)


def recovery_fraction(
    graph: MooreFsm | None, state_count: int, input_bits: int
) -> float:
    """Recovered share of the machine's state_count * 2**input_bits edges."""
    if state_count < 1 or input_bits < 0:
        raise ValueError("need a positive state count and non-negative arity")
    if graph is None:
        return 0.0
    return transition_count(graph) / (state_count * (1 << input_bits))
