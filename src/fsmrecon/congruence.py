"""Congruence closure over a deterministic Moore graph.

Nodes carry an output and at most one labelled edge per input vector.  Two
nodes that name one state of a deterministic machine must agree on their
output, and their successors under each shared input must name one state
too; ``merge`` unions two nodes and propagates that rule until it settles.
Both the state-grouping guess in ``recovery`` and the round merge in
``stg`` are this closure, differing only in what an edge label carries and
how two labels on one merged edge combine (``meet``).
"""

from __future__ import annotations

from typing import Any, Callable


class Congruence:
    """Union-find over graph nodes, closed under determinism.

    ``outputs[i]`` is node i's output; ``edges[i]`` maps an input vector to
    ``(target node, label)``.  ``meet(kept, other)`` combines the labels of
    two edges that a merge identifies, keeping the root's edge first, and
    returns None when they contradict each other.  The smaller node id
    always becomes the root, so a class is named by its least member.
    ``edges`` is keyed by root: a merged-away node's edges move to its root.
    """

    def __init__(
        self,
        outputs: list[str],
        edges: dict[int, dict[int, tuple[int, Any]]],
        meet: Callable[[Any, Any], Any],
    ):
        self.parent = list(range(len(outputs)))
        self.outputs = outputs
        self.edges = edges
        self.meet = meet

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def merge(self, a: int, b: int) -> int:
        """Union a and b and propagate determinism; -1 on a contradiction.

        A contradiction is two different outputs in one class, or two
        labels that ``meet`` refuses.  Otherwise returns the number of
        unions performed: each passed an output-agreement check, so the
        count measures how much evidence corroborates the merge.  A merge
        that returns -1 leaves the structure half-merged; trial merges
        that may be rejected run on a ``copy()``.
        """
        find = self.find
        parent = self.parent
        outputs = self.outputs
        edges = self.edges
        meet = self.meet
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
            parent[ry] = rx
            score += 1
            ex = edges.setdefault(rx, {})
            for vec, (ty, label_y) in edges.pop(ry, {}).items():
                if vec in ex:
                    tx, label_x = ex[vec]
                    label = meet(label_x, label_y)
                    if label is None:
                        return -1
                    ex[vec] = (tx, label)
                    stack.append((tx, ty))
                else:
                    ex[vec] = (ty, label_y)
        return score

    def copy(self) -> "Congruence":
        """An independent copy for a trial merge; outputs are shared."""
        twin = Congruence.__new__(Congruence)
        twin.outputs = self.outputs
        twin.meet = self.meet
        twin.parent = list(self.parent)
        twin.edges = {r: dict(m) for r, m in self.edges.items()}
        return twin

    def classes(self, n: int) -> list[int]:
        """Class per node for the first ``n`` nodes, ids dense from 0 in
        order of first appearance."""
        find = self.find
        remap: dict[int, int] = {}
        return [remap.setdefault(find(p), len(remap)) for p in range(n)]
