"""State-identification constraints over trace positions.

A captured trace pins down N+1 register snapshots ("positions").  Each
consecutive pair is tied by what the side channel said about that clocking:
an exact zero distance makes the two positions identical, anything else
bounds their distance inside the inference window clamped to the register
width.  Any two positions whose functional outputs differ must hold
different register values; that rule is kept as a partition of the
positions by output (one group id per position), not as pairs, so a set
holds N chain constraints plus N+1 group ids.  Solving these constraints
at a given width yields one candidate register value per position.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .capture import Trace


@dataclass(frozen=True, slots=True)
class Identical:
    """Positions ``i`` and ``j`` hold the same register value."""

    i: int
    j: int


@dataclass(frozen=True, slots=True)
class HdRange:
    """The distance between positions ``i`` and ``j`` lies in [lo, hi]."""

    i: int
    j: int
    lo: int
    hi: int


@dataclass(frozen=True, slots=True)
class Distinct:
    """Positions ``i`` and ``j`` must hold different register values.

    Never stored in a :class:`ConstraintSet`; :func:`find_violation` returns
    one as the witness of a broken output partition.
    """

    i: int
    j: int


Constraint = Identical | HdRange


@dataclass
class ConstraintSet:
    """All constraints for one trace at one candidate register width.

    ``constraints`` holds the chain: one Identical or HdRange per
    consecutive position pair.  ``groups`` gives each position an output
    group id; positions in different groups must hold different values,
    positions in one group are unconstrained by it.
    """

    width: int
    n_positions: int
    constraints: list[Constraint]
    groups: list[int]
    trivially_unsat: bool

    def __post_init__(self) -> None:
        if len(self.groups) != self.n_positions:
            raise ValueError(
                f"expected {self.n_positions} group ids, got {len(self.groups)}"
            )

    def counts(self) -> dict[str, int]:
        """Chain constraints by kind, and how many position pairs lie in
        different output groups."""
        identical = sum(isinstance(c, Identical) for c in self.constraints)
        n = self.n_positions
        same = sum(k * k for k in Counter(self.groups).values())
        return {
            "identical": identical,
            "hd_range": len(self.constraints) - identical,
            "distinct": (n * n - same) // 2,
        }


def r_min(trace: Trace) -> int:
    """Smallest width worth trying: distinct outputs force distinct values."""
    unique = len(set(trace.outputs))
    return max(1, math.ceil(math.log2(unique))) if unique > 1 else 1


def output_groups(outputs: list[str]) -> list[int]:
    """Dense output-group id per position, numbered in first-seen order."""
    ids: dict[str, int] = {}
    return [ids.setdefault(out, len(ids)) for out in outputs]


def build_constraints(trace: Trace, width: int) -> ConstraintSet:
    """Constraints for ``trace`` at register width ``width``.

    Consecutive positions get an Identical constraint when the channel read
    an exact zero, otherwise the channel's inference window [``lo``,
    min(width, ``hi``)].  A window that empties after clamping (the width
    cannot carry the observed distance) marks the set trivially
    unsatisfiable but is still recorded.  Output groups come from
    :func:`output_groups`.  The set is O(N).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    constraints: list[Constraint] = []
    trivially_unsat = False
    for k, inf in enumerate(trace.inferred):
        i, j = k, k + 1
        if inf.exact:
            constraints.append(Identical(i, j))
        else:
            hi = min(width, inf.hi)
            if inf.lo > hi:
                trivially_unsat = True
            constraints.append(HdRange(i, j, inf.lo, hi))
    groups = output_groups(trace.outputs)
    return ConstraintSet(
        width=width,
        n_positions=len(groups),
        constraints=constraints,
        groups=groups,
        trivially_unsat=trivially_unsat,
    )


def find_violation(
    cs: ConstraintSet, values: list[int]
) -> Constraint | Distinct | None:
    """First constraint the assignment breaks, or None.

    This is the independent checker: straight popcount arithmetic on the
    assigned values, sharing nothing with the CNF encoding or the solver.
    The chain is checked in order; then value -> group must be a function,
    and a clash is reported as ``Distinct(i, j)`` with ``i`` the first
    position holding the value.
    """
    if len(values) != cs.n_positions:
        raise ValueError(f"expected {cs.n_positions} values, got {len(values)}")
    limit = 1 << cs.width
    for k, v in enumerate(values):
        if not 0 <= v < limit:
            raise ValueError(f"value {v} at position {k} does not fit width {cs.width}")
    for c in cs.constraints:
        if isinstance(c, Identical):
            if values[c.i] != values[c.j]:
                return c
        elif not c.lo <= (values[c.i] ^ values[c.j]).bit_count() <= c.hi:
            return c
    groups = cs.groups
    first: dict[int, int] = {}
    for j, v in enumerate(values):
        i = first.setdefault(v, j)
        if groups[i] != groups[j]:
            return Distinct(i, j)
    return None


def evaluate(cs: ConstraintSet, values: list[int]) -> bool:
    """True iff the assignment satisfies every constraint."""
    return find_violation(cs, values) is None
