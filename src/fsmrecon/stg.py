"""Recovered graphs: folding one round's recovered values into a partial
Moore machine and merging those machines across rounds.

A recovered graph is a :class:`~fsmrecon.fsm.MooreFsm` with states
``s0 .. s{n-1}``, reset 0 and a possibly incomplete ``delta``.  Positions
sharing a recovered register value fold into one state.  A fold that
produces nondeterministic transitions is evidence the round's solution
identified positions it should not have, and the round is rejected.
Merging walks two graphs from their resets, unifying matched states and
propagating forced identifications (congruence closure); an output clash
during closure likewise rejects the round.  An attack merges every round
into one :class:`MergeGraph`, which grows by a fold at a time, takes a
refused merge back in place and resumes each trace's replay where it
stopped, so a round costs its own walk, not the attack so far.
"""

from __future__ import annotations

from .capture import Trace
from .congruence import Congruence
from .fsm import MooreFsm
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


def _keep(kept: bool, _: bool) -> bool:
    return kept


class MergeGraph:
    """A recovered graph that later graphs merge into in place.

    Every graph merged in so far is a set of nodes of one
    :class:`~fsmrecon.congruence.Congruence`, whose classes are the states
    and whose class edges are the transitions, so ``transitions`` counts
    them.  Edges carry no label worth combining, but a label must not be
    None: ``meet`` answers None for a contradiction.  Graphs are reachable
    from their resets, so every class is.  ``merge`` adds a graph's nodes
    and edges and unifies the two resets (the first graph merged into an
    empty one is simply added); ``undo`` takes the last merge back, closure,
    nodes and all.  ``machine`` numbers the states breadth-first only when
    it hands out a MooreFsm, and only if a merge has happened since the
    first graph: until then it hands out that graph as it was given.

    Traces are held to the graph: ``hold`` adds one, and ``replays`` says
    whether every held trace replays.  A held trace keeps the step where
    its last replay stopped, at a transition the graph lacked, and the
    node it had reached.  A merged graph is a homomorphic image of the
    graph before it, so the prefix replays the same way there, and the next
    replay resumes from that node's class; a trace replayed to its end
    replays on every image and is dropped.
    """

    def __init__(self, graph: MooreFsm | None = None):
        self.cong = Congruence([], {}, _keep)
        self.input_bits = self.output_bits = 0
        self.reset = 0
        self.transitions = 0
        self._handed: MooreFsm | None = None
        # (trace, step, node) per held trace, node None for the reset
        self._resume: list[tuple[Trace, int, int | None]] = []
        self._before: tuple = (0, 0, None, self._resume)
        if graph is not None:
            self.merge(graph)

    def merge(self, graph: MooreFsm) -> bool:
        """Merge ``graph`` in; False, with nothing changed, on a clash.

        Closure runs from the two resets, which name one device state; it
        clashes when it demands two different outputs in one state.
        """
        cong = self.cong
        first = len(cong.parent)
        self._before = (first, self.transitions, self._handed, self._resume)
        edges: dict[int, dict[int, tuple[int, bool]]] = {}
        for (src, vec), dst in graph.delta.items():
            edges.setdefault(first + src, {})[vec] = (first + dst, True)
        cong.add(graph.outputs, edges)
        if first == 0:
            self.input_bits = graph.input_bits
            self.output_bits = graph.output_bits
            self.reset = graph.reset
            self._handed = graph
        elif cong.merge(self.reset, first + graph.reset) < 0:
            self.undo()
            return False
        else:
            self._handed = None
        self.transitions = sum(map(len, cong.edges.values()))
        return True

    def undo(self) -> None:
        """Take back the last ``merge``, and any replay since it."""
        first, self.transitions, self._handed, self._resume = self._before
        self.cong.undo()
        self.cong.truncate(first)

    def hold(self, trace: Trace) -> None:
        """Hold ``trace`` to the graph from the next ``replays`` on."""
        self._resume.append((trace, 0, None))

    def replays(self, traces: list[Trace] | tuple[Trace, ...] = ()) -> bool:
        """Whether every held trace, and each of ``traces`` from the reset,
        replays on the graph as it is now.

        A replay passes when every step the graph can follow emits the
        trace's output, as in :func:`~fsmrecon.verify.replay_consistency`.
        On a pass ``traces`` are held too and every stop point moves on;
        on a failure nothing changes.
        """
        find = self.cong.find
        edges = self.cong.edges
        outputs = self.cong.outputs
        none: dict[int, tuple[int, bool]] = {}
        resume = []
        fresh = [(t, 0, None) for t in traces]
        for trace, k, node in self._resume + fresh:
            outs, stimulus, n = trace.outputs, trace.stimulus, trace.n_steps
            node = find(self.reset if node is None else node)
            if outputs[node] != outs[k]:
                return False
            while k < n:
                step = edges.get(node, none).get(stimulus[k])
                if step is None:
                    resume.append((trace, k, node))
                    break
                node = find(step[0])
                k += 1
                if outputs[node] != outs[k]:
                    return False
        self._resume = resume
        return True

    def machine(self) -> MooreFsm | None:
        """The graph as a MooreFsm, or None while it is empty."""
        if self._handed is not None or not self.cong.parent:
            return self._handed
        # number reachable classes by breadth-first order from the reset
        cong = self.cong
        find = cong.find
        root0 = find(self.reset)
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
        self._handed = _graph(self.input_bits, self.output_bits, outputs, delta)
        return self._handed


def merge_rounds(acc: MooreFsm | None, rnd: MooreFsm) -> MooreFsm:
    """Merge a round's graph into the accumulator.

    Both graphs observe the same device from reset, so their reset states
    unify; every forced identification propagates through shared transitions.
    Raises StgConflictError when closure demands two different outputs in
    one state — the round (or a previous one) folded wrongly.  The result
    numbers its states breadth-first from the reset.  This is one
    :meth:`MergeGraph.merge`; an attack merges its rounds into one
    :class:`MergeGraph` instead.
    """
    if acc is None:
        return _graph(
            rnd.input_bits, rnd.output_bits, list(rnd.outputs), dict(rnd.delta)
        )
    if (acc.input_bits, acc.output_bits) != (rnd.input_bits, rnd.output_bits):
        raise StgConflictError("graphs disagree on input/output arity")
    graph = MergeGraph(acc)
    if not graph.merge(rnd):
        raise StgConflictError("closure merges states with different outputs")
    return graph.machine()


def recovery_fraction(
    transitions: int, state_count: int, input_bits: int
) -> float:
    """Recovered share of the machine's state_count * 2**input_bits edges,
    for a graph holding ``transitions`` of them."""
    if state_count < 1 or input_bits < 0:
        raise ValueError("need a positive state count and non-negative arity")
    return transitions / (state_count * (1 << input_bits))
