"""A verbatim copy of ``fsmrecon.stg.MergeGraph.merge`` as it was while
it built each transition's edge with ``setdefault`` and a tuple of its own,
as :class:`ReferenceMergeGraph`'s ``merge``.

``test_stg.py`` merges the same graphs into a ``MergeGraph`` and a
``ReferenceMergeGraph``, with refused merges and undos, and requires the
same answers and the same closure after every step.
"""

from __future__ import annotations

from fsmrecon.fsm import MooreFsm
from fsmrecon.stg import MergeGraph


class ReferenceMergeGraph(MergeGraph):
    def merge(self, graph: MooreFsm) -> bool:
        """Merge ``graph`` in; False, with nothing changed, on a clash.

        Closure runs from the two resets, which name one device state; it
        clashes when it demands two different outputs in one state.
        """
        cong = self.cong
        first = len(cong.parent)
        self._before = (first, self._handed, self._resume)
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
        return True
