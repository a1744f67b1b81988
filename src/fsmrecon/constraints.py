"""State-identification constraints over trace positions.

A captured trace pins down N+1 register snapshots ("positions").  Each
consecutive pair is tied by what the side channel said about that
clocking: a distance window, the inference window clamped to the register
width, where (0, 0) makes the two positions identical.  Any two positions
whose functional outputs differ must hold different register values; that
rule is kept as a partition of the positions by output (one group id per
position), not as pairs, so a set holds N windows plus N+1 group ids.
Solving these constraints at a given width yields one candidate register
value per position.

The width search starts at a lower bound read straight from the trace:
:func:`forced_width` counts the output groups, plus those that a nonzero
step splits in two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .capture import Trace
from .channel import BAND_READINGS
from .fsm import code_width


@dataclass
class ConstraintSet:
    """All constraints for one trace at one candidate register width.

    ``windows[k] = (lo, hi)`` bounds the distance between positions k and
    k+1: (0, 0) is an exact zero reading, and ``lo > hi`` a window the
    width cannot carry.  ``groups`` gives each position an output group
    id; positions in different groups must hold different values,
    positions in one group are unconstrained by it.
    """

    width: int
    windows: list[tuple[int, int]]
    groups: list[int]

    def __post_init__(self) -> None:
        if len(self.windows) != len(self.groups) - 1:
            raise ValueError(
                f"expected {len(self.groups) - 1} windows for "
                f"{len(self.groups)} positions, got {len(self.windows)}"
            )

    @property
    def n_positions(self) -> int:
        return len(self.groups)

    @property
    def trivially_unsat(self) -> bool:
        """Some window is empty, so no assignment satisfies the set."""
        return any(lo > hi for lo, hi in self.windows)

    def counts(self) -> dict[str, int]:
        """Zero and other windows, and how many position pairs lie in
        different output groups."""
        identical = self.windows.count((0, 0))
        n = self.n_positions
        same = sum(k * k for k in Counter(self.groups).values())
        return {
            "identical": identical,
            "hd_range": len(self.windows) - identical,
            "distinct": (n * n - same) // 2,
        }


def forced_width(trace: Trace) -> int:
    """Smallest width the trace leaves possible, by a clique bound.

    Positions that must hold different values form a graph: positions in
    different output groups, and the two ends of every step whose window
    has ``lo >= 1``.  With zero-step runs merged, it is complete between
    output groups and, inside one group, has only step edges between
    consecutive runs, so no triangle.  Its largest clique is therefore
    ``G + D``: the G output groups, plus one for each group that holds
    both ends of such a step.  A clique of k positions needs k codes, so
    every narrower width is unsatisfiable (Heule & Verwer, "Exact DFA
    Identification Using SAT Solvers", ICGI 2010).
    """
    groups = trace.groups
    doubled = {
        groups[k]
        for k, inf in enumerate(trace.inferred)
        if inf.lo >= 1 and groups[k] == groups[k + 1]
    }
    k = max(groups) + 1 + len(doubled)
    return code_width(k)


def build_constraints(trace: Trace, width: int) -> ConstraintSet:
    """Constraints for ``trace`` at register width ``width``.

    Each step keeps the channel's inference window [``lo``, min(width,
    ``hi``)], so an exact zero reading gives (0, 0); a reading is one of
    the channel's shared band readings, so each band is clamped once and
    a step looks its window up by the band's center.  A window that empties
    after clamping (the width cannot carry the observed distance) is still
    recorded and makes the set trivially unsatisfiable.  The output groups
    are the trace's own, :func:`~fsmrecon.capture.output_groups` of its
    outputs, shared rather than copied.  The set is O(N).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    band = [(r.lo, min(width, r.hi)) for r in BAND_READINGS]
    return ConstraintSet(
        width=width,
        windows=[band[inf.center] for inf in trace.inferred],
        groups=trace.groups,
    )


def find_violation(
    cs: ConstraintSet, values: list[int]
) -> tuple[int, int] | None:
    """First position pair the assignment breaks, or None.

    This is the independent checker: straight popcount arithmetic on the
    assigned values, sharing nothing with the CNF encoding or the solver.
    The windows are checked in order, a broken step k reported as
    ``(k, k+1)``; then value -> group must be a function, and a clash is
    reported as ``(i, j)`` with ``i`` the first position holding the value.
    """
    if len(values) != cs.n_positions:
        raise ValueError(f"expected {cs.n_positions} values, got {len(values)}")
    limit = 1 << cs.width
    for k, v in enumerate(values):
        if not 0 <= v < limit:
            raise ValueError(f"value {v} at position {k} does not fit width {cs.width}")
    for k, ((lo, hi), u, v) in enumerate(zip(cs.windows, values, values[1:])):
        if not lo <= (u ^ v).bit_count() <= hi:
            return k, k + 1
    groups = cs.groups
    first: dict[int, int] = {}
    for j, v in enumerate(values):
        i = first.setdefault(v, j)
        if groups[i] != groups[j]:
            return i, j
    return None
