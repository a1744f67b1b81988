"""Congruence closure over a deterministic Moore graph.

Nodes carry an output and at most one labelled edge per input vector.  Two
nodes that name one state of a deterministic machine must agree on their
output, and their successors under each shared input must name one state
too; ``merge`` unions two nodes and propagates that rule until it settles.
Both the state-grouping guess in ``recovery`` and the round merge in
``stg`` are this closure, differing only in what an edge label carries,
how two labels on one merged edge combine (``meet``), and whether a class
may step to itself (``loop``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable


class Congruence:
    """Union-find over graph nodes, closed under determinism.

    ``outputs[i]`` is node i's output; ``edges[i]`` maps an input vector to
    ``(target node, label)``.  ``meet(kept, other)`` combines the labels of
    two edges that a merge identifies, keeping the root's edge first, and
    returns None when they contradict each other.  When ``loop`` is given,
    an edge from a class back into itself must carry a label that meets
    ``loop``.  The smaller node id always becomes the root, so a class is
    named by its least member.  ``edges`` is keyed by root: a merged-away
    node's edges move to its root.  ``meet`` must be idempotent: two equal
    labels, and a loop label equal to ``loop``, are kept without a call.
    ``undo`` takes back the last ``merge`` or ``merge_all``, so a trial
    merge needs no copy; ``add`` appends nodes and ``truncate`` drops them
    again, so one structure can grow by a graph at a time.
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
        return self.merge_all([(a, b)])

    def merge_all(self, pairs: list[tuple[int, int]]) -> int:
        """``merge`` every pair in one closure pass, undone by one ``undo``.

        The closure is the least congruence holding every pair, whatever
        order its unions come in, and a contradiction, once met, stays in
        every coarser partition; so ``merge`` of the pairs one at a time
        reaches the same classes, roots and labels, or is refused too.
        ``trail`` then holds one (absorbed root, kept root, ...) record per
        union.
        """
        parent = self.parent
        outputs = self.outputs
        edges = self.edges
        meet = self.meet
        loop = self.loop
        trail = self.trail = []
        score = 0
        stack = list(pairs)
        while stack:
            rx, ry = stack.pop()
            # find, inlined in the closure's hot loop
            while parent[rx] != rx:
                rx = parent[rx]
            while parent[ry] != ry:
                ry = parent[ry]
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
                step = ex.get(vec)
                if step is None:
                    ex[vec] = (ty, label_y)
                    continue
                tx, label_x = step
                if label_x != label_y:
                    label = meet(label_x, label_y)
                    if label is None:
                        return -1
                    ex[vec] = (tx, label)
                stack.append((tx, ty))
            # checked even when ry had no edges: rx's own edges into ry's
            # class are self-loops now
            if loop is not None:
                for t, label in ex.values():
                    while parent[t] != t:
                        t = parent[t]
                    if t == rx and label != loop and meet(label, loop) is None:
                        return -1
        return score

    def undo(self) -> None:
        """Take back the last ``merge`` or ``merge_all``, refused or not;
        then a no-op."""
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

    def classes(self, nodes: Iterable[int]) -> list[int]:
        """Class per node of ``nodes``, ids dense from 0 in order of first
        appearance."""
        find = self.find
        remap: dict[int, int] = {}
        return [remap.setdefault(find(p), len(remap)) for p in nodes]
