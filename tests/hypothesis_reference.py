"""A verbatim copy of ``fsmrecon.recovery.merge_hypothesis`` and the
``Congruence`` it ran on before the guess's graph was built over
zero-step runs: one node per pooled position, the reset joins and the
zero-step unions made by one ``merge`` call each, and every (red, blue)
trial merge closed afresh on every pass of the red-blue loop.

``test_recovery.py`` runs both on the same pooled walks and requires
identical class lists.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable

from fsmrecon.capture import Trace
from fsmrecon.recovery import (
    _MERGE_MAX_POSITIONS,
    OutputEvidence,
    _window_meet,
)


class Congruence:
    """Union-find over graph nodes, closed under determinism.

    ``outputs[i]`` is node i's output; ``edges[i]`` maps an input vector to
    ``(target node, label)``.  ``meet(kept, other)`` combines the labels of
    two edges that a merge identifies, keeping the root's edge first, and
    returns None when they contradict each other.  When ``loop`` is given,
    an edge from a class back into itself must carry a label that meets
    ``loop``.  The smaller node id always becomes the root, so a class is
    named by its least member.  ``edges`` is keyed by root: a merged-away
    node's edges move to its root.  ``undo`` takes back the last ``merge``,
    so a trial merge needs no copy; ``add`` appends nodes and ``truncate``
    drops them again, so one structure can grow by a graph at a time.
    """

    def __init__(
        self,
        outputs: list[str],
        edges: dict[int, dict[int, tuple[int, Any]]],
        meet: Callable[[Any, Any], Any],
        loop: Any = None,
    ):
        self.parent = list(range(len(outputs)))
        self.outputs = outputs
        self.edges = edges
        self.meet = meet
        self.loop = loop
        self.trail: list[tuple[int, int, Any, Any]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def merge(self, a: int, b: int) -> int:
        """Union a and b and propagate determinism; -1 on a contradiction.

        A contradiction is two different outputs in one class, two labels
        that ``meet`` refuses, or a self-loop whose label does not meet
        ``loop``.  Otherwise returns the number of unions performed: each
        passed an output-agreement check, so the count measures how much
        evidence corroborates the merge.  A merge that returns -1 leaves
        the structure half-merged until ``undo``.
        """
        find = self.find
        parent = self.parent
        outputs = self.outputs
        edges = self.edges
        meet = self.meet
        loop = self.loop
        trail = self.trail = []
        score = 0
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if outputs[rx] != outputs[ry]:
                return -1
            if ry < rx:
                rx, ry = ry, rx
            moved = edges.pop(ry, None)
            kept = edges.get(rx)
            trail.append((ry, rx, moved, kept))
            parent[ry] = rx
            score += 1
            ex = edges[rx] = dict(kept) if kept else {}
            for vec, (ty, label_y) in (moved or {}).items():
                if vec in ex:
                    tx, label_x = ex[vec]
                    label = meet(label_x, label_y)
                    if label is None:
                        return -1
                    ex[vec] = (tx, label)
                    stack.append((tx, ty))
                else:
                    ex[vec] = (ty, label_y)
            # checked even when ry had no edges: rx's own edges into ry's
            # class are self-loops now
            if loop is not None:
                for t, label in ex.values():
                    if find(t) == rx and meet(label, loop) is None:
                        return -1
        return score

    def undo(self) -> None:
        """Take back the last ``merge``, refused or not; then a no-op."""
        for ry, rx, moved, kept in reversed(self.trail):
            self.parent[ry] = ry
            if moved is not None:
                self.edges[ry] = moved
            if kept is None:
                del self.edges[rx]
            else:
                self.edges[rx] = kept
        self.trail = []

    def add(
        self, outputs: list[str], edges: dict[int, dict[int, tuple[int, Any]]]
    ) -> None:
        """Append one node per output, each in a class of its own.  The new
        nodes take the ids from ``len(parent)`` on, and ``edges`` holds
        their out-edges under those ids."""
        first = len(self.parent)
        self.parent.extend(range(first, first + len(outputs)))
        self.outputs.extend(outputs)
        self.edges.update(edges)

    def truncate(self, n: int) -> None:
        """Drop every node from ``n`` on.  No node below ``n`` may be joined
        to one of them or step to one, as after an ``undo`` of every merge
        since they were added."""
        for node in range(n, len(self.parent)):
            self.edges.pop(node, None)
        del self.parent[n:]
        del self.outputs[n:]

    def classes(self, n: int) -> list[int]:
        """Class per node for the first ``n`` nodes, ids dense from 0 in
        order of first appearance."""
        find = self.find
        remap: dict[int, int] = {}
        return [remap.setdefault(find(p), len(remap)) for p in range(n)]


def merge_hypothesis(
    trace: Trace,
    extra: list[Trace] | tuple[Trace, ...] = (),
    evidence: OutputEvidence | None = None,
) -> list[int]:
    """Guess which trace positions share a state, by evidence-driven merging.

    Grouping by output vector is tried first, by :class:`OutputEvidence`
    over every walk, with no union-find.  It holds when each (output,
    input) pair steps to one successor output, the distance windows of
    those steps share a point, and no step with a nonzero distance joins
    two equal outputs; it is exact whenever every state owns its output
    vector.
    Failing that, positions joined by exact zero-distance
    steps are one node from the start, and determinism closure runs over
    them: one node stepped by one input reaches one node.  A core of
    confirmed-distinct classes then grows outward: any frontier node that
    clashes with every core class is itself a new class, and otherwise the
    frontier merge corroborated by the most evidence is taken — a merge is
    valid when closure finds no output clash and no step with a nonzero
    distance window collapses into a self-loop.
    The result is a deterministic grouping consistent with everything the
    trace shows; it seeds solver decision phases, so a wrong guess on sparse
    evidence costs solver conflicts, never correctness.

    ``extra`` traces captured from the same device contribute evidence
    without contributing positions: all traces start at the one reset state,
    so their position graphs join at the root and every extra observation
    sharpens the merges.  A single walk rarely pins down machines with few
    distinct outputs; pooled walks usually do.  ``evidence``, when given,
    must hold exactly ``trace`` and ``extra``: a caller that adds each walk
    as it is captured need not have them all rescanned.  Past the search's
    position ceiling the pooled walks are shed, and the trace alone is
    judged afresh.
    """
    n = trace.n_steps + 1
    walks = [trace, *extra]
    for w in walks[1:]:
        if (w.input_bits, w.output_bits) != (
            trace.input_bits,
            trace.output_bits,
        ):
            raise ValueError("pooled traces must share input/output arity")
    if evidence is None:
        evidence = OutputEvidence()
        for w in walks:
            evidence.add(w)
    if evidence.holds:
        return trace.groups
    *offsets, total = accumulate((w.n_steps + 1 for w in walks), initial=0)
    if total > _MERGE_MAX_POSITIONS:
        # the merge search below is too costly here: shed the optional
        # pooled evidence first, past that settle for output grouping
        if extra and n <= _MERGE_MAX_POSITIONS:
            return merge_hypothesis(trace)
        return trace.groups
    outs: list[str] = []
    succs: dict[int, dict[int, tuple[int, tuple[int, int]]]] = {}
    for w, off in zip(walks, offsets):
        outs.extend(w.outputs)
        for k in range(w.n_steps):
            inf = w.inferred[k]
            succs.setdefault(off + k, {})[w.stimulus[k]] = (
                off + k + 1,
                (inf.lo, inf.hi),
            )
    # a state that steps to itself moves distance 0
    cong = Congruence(outs, succs, _window_meet, loop=(0, 0))
    # every walk begins at the same physical reset state
    for off in offsets[1:]:
        if cong.merge(0, off) < 0:
            return trace.groups
    # zero-distance steps: same state before and after, merge up front
    for w, off in zip(walks, offsets):
        for k, inf in enumerate(w.inferred):
            if inf.center == 0:
                if cong.merge(off + k, off + k + 1) < 0:
                    # inconsistent; best effort
                    return trace.groups

    find = cong.find
    red: list[int] = [find(0)]
    while True:
        red = [r for r in red if find(r) == r]
        frontier = sorted(
            {
                find(t)
                for r in red
                for t, _ in cong.edges.get(r, {}).values()
            }
            - set(red)
        )
        if not frontier:
            break
        best = None  # (key, cand, node)
        for bi, node in enumerate(frontier):
            mergeable = False
            for ri, cand in enumerate(red):
                if outs[cand] != outs[node]:
                    continue
                score = cong.merge(cand, node)
                cong.undo()
                if score < 0:
                    continue
                mergeable = True
                key = (score, -bi, -ri)
                if best is None or key > best[0]:
                    best = (key, cand, node)
            if not mergeable:
                red.append(node)  # distinct from every class: a new one
                break
        else:
            cong.merge(*best[1:])

    return cong.classes(n)
