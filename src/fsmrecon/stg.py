"""Partial state-transition graphs: folding one round's recovered values
into a graph and merging graphs across rounds.

Positions sharing a recovered register value fold into one state.  A fold
that produces nondeterministic transitions is evidence the round's solution
identified positions it should not have, and the round is rejected.  Merging
walks two graphs from their resets, unifying matched states and propagating
forced identifications (congruence closure); an output clash during closure
likewise rejects the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .capture import Trace
from .congruence import Congruence
from .fsm import MooreFsm
from .recovery import EncodingAssignment


class StgConflictError(ValueError):
    """The round's graph contradicts itself or the accumulated graph."""


@dataclass
class PartialStg:
    """A deterministic, reset-reachable, possibly incomplete Moore graph.

    State ids are dense and 0 is the reset state.  ``provenance`` records
    the round that first contributed each transition.
    """

    input_bits: int
    output_bits: int
    outputs: list[str]
    transitions: dict[tuple[int, int], int]
    provenance: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def state_count(self) -> int:
        return len(self.outputs)

    @property
    def transition_count(self) -> int:
        return len(self.transitions)


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


def build_partial_stg(
    trace: Trace, assignment: EncodingAssignment, round_no: int = 0
) -> PartialStg:
    """Fold a solved trace into a graph; reject nondeterministic folds."""
    ids = fold_states(trace, assignment)
    n_states = max(ids) + 1
    outputs = [""] * n_states
    for pos, sid in enumerate(ids):
        outputs[sid] = trace.outputs[pos]
    transitions: dict[tuple[int, int], int] = {}
    provenance: dict[tuple[int, int], int] = {}
    for k in range(trace.n_steps):
        key = (ids[k], trace.stimulus[k])
        target = ids[k + 1]
        existing = transitions.get(key)
        if existing is None:
            transitions[key] = target
            provenance[key] = round_no
        elif existing != target:
            raise StgConflictError(
                f"state {key[0]} under input {key[1]} reaches both "
                f"{existing} and {target}: over-identified positions"
            )
    return PartialStg(
        input_bits=trace.input_bits,
        output_bits=trace.output_bits,
        outputs=outputs,
        transitions=transitions,
        provenance=provenance,
    )


def merge_rounds(acc: PartialStg | None, rnd: PartialStg) -> PartialStg:
    """Merge a round's graph into the accumulator.

    Both graphs observe the same device from reset, so their reset states
    unify; every forced identification propagates through shared transitions.
    Raises StgConflictError when closure demands two different outputs in
    one state — the round (or a previous one) folded wrongly.
    """
    if acc is None:
        return PartialStg(
            input_bits=rnd.input_bits,
            output_bits=rnd.output_bits,
            outputs=list(rnd.outputs),
            transitions=dict(rnd.transitions),
            provenance=dict(rnd.provenance),
        )
    if (acc.input_bits, acc.output_bits) != (rnd.input_bits, rnd.output_bits):
        raise StgConflictError("graphs disagree on input/output arity")

    offset = acc.state_count
    edges: dict[int, dict[int, tuple[int, int]]] = {}
    for (src, vec), dst in acc.transitions.items():
        edges.setdefault(src, {})[vec] = (
            dst,
            acc.provenance.get((src, vec), 0),
        )
    for (src, vec), dst in rnd.transitions.items():
        edges.setdefault(src + offset, {})[vec] = (
            dst + offset,
            rnd.provenance.get((src, vec), 0),
        )
    # the kept root's provenance wins; accumulator states have the smaller
    # ids, so a transition the accumulator already holds keeps its round
    cong = Congruence(acc.outputs + rnd.outputs, edges, lambda kept, _: kept)
    # both resets name the same device state
    if cong.merge(0, offset) < 0:
        raise StgConflictError("closure merges states with different outputs")

    # renumber reachable classes by breadth-first order from the reset
    find = cong.find
    root0 = find(0)
    order: dict[int, int] = {root0: 0}
    queue = [root0]
    new_outputs = [cong.outputs[root0]]
    new_transitions: dict[tuple[int, int], int] = {}
    new_provenance: dict[tuple[int, int], int] = {}
    qi = 0
    while qi < len(queue):
        root = queue[qi]
        qi += 1
        out_edges = cong.edges.get(root, {})
        for vec in sorted(out_edges):
            dst, prov = out_edges[vec]
            dst = find(dst)
            if dst not in order:
                order[dst] = len(order)
                new_outputs.append(cong.outputs[dst])
                queue.append(dst)
            new_transitions[(order[root], vec)] = order[dst]
            new_provenance[(order[root], vec)] = prov
    return PartialStg(
        input_bits=acc.input_bits,
        output_bits=acc.output_bits,
        outputs=new_outputs,
        transitions=new_transitions,
        provenance=new_provenance,
    )


def recovery_fraction(
    stg: PartialStg | None, state_count: int, input_bits: int
) -> float:
    """Recovered share of the machine's state_count * 2**input_bits edges."""
    if state_count < 1 or input_bits < 0:
        raise ValueError("need a positive state count and non-negative arity")
    if stg is None:
        return 0.0
    return stg.transition_count / (state_count * (1 << input_bits))


def stg_to_moore(stg: PartialStg) -> MooreFsm:
    """View the graph as a (possibly incomplete) Moore machine."""
    return MooreFsm(
        input_bits=stg.input_bits,
        output_bits=stg.output_bits,
        states=[f"s{i}" for i in range(stg.state_count)],
        reset=0,
        delta=dict(stg.transitions),
        outputs=list(stg.outputs),
    )
