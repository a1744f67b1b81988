"""Simulated power side channel.

Clocking a sequential circuit draws an average supply current that grows
with the number of state-register flip-flops that toggle.  This module
models that leakage analytically: six band edges, ``BAND_EDGES``, cut the
average current into bands whose indices are register Hamming distances, a
noise model perturbs what the "measurement" reports, and ``infer_hd`` turns
a current reading back into a distance estimate with a one-band
uncertainty window.  The device asks for a walk's readings in one call,
``synthesize_currents``, which makes the draws that one clocking at a time
would make, in the same order.

Two hard properties hold under every noise model: a zero-distance clock
(self-loop) always lands in the zero band, and a nonzero distance never
reads back as zero.  Everything downstream leans on both.  The estimates
are built once per band and shared; ``InferredHd`` is frozen, so no reader
can change one another holds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

NOISE_KINDS = ("exact", "table3", "gaussian")

# Error distribution of the banded readout measured against ground truth:
# probability that the inferred band is off by 0 / +1 / -1.
BAND_ERROR_P0 = 0.852
BAND_ERROR_PLUS1 = 0.120
BAND_ERROR_MINUS1 = 0.028

SIGMA_MAX = 1e100  # keeps a gaussian reading, and its square in pearson, finite


@dataclass(frozen=True)
class NoiseModel:
    """How synthesized current readings deviate from the clean band value."""

    kind: str
    sigma: float = 10.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not 0 <= self.sigma <= SIGMA_MAX:  # NaN fails too
            raise ValueError(f"sigma must be in [0, {SIGMA_MAX:g}], got {self.sigma}")

    @classmethod
    def exact(cls) -> "NoiseModel":
        return cls(kind="exact")

    @classmethod
    def table3(cls) -> "NoiseModel":
        return cls(kind="table3")

    @classmethod
    def gaussian(cls, sigma: float = 10.0) -> "NoiseModel":
        return cls(kind="gaussian", sigma=sigma)


@dataclass(frozen=True)
class InferredHd:
    """A banded distance estimate: the center band plus a +/-1 window.

    ``lo``/``hi`` bound the actual distance given the one-band error budget.
    A zero center is exact (``lo == hi == 0``): self-loops are always
    identified.  The top band has no upper edge, so its window is open
    above (``hi`` is ``math.inf``); the constraint builder clamps ``hi`` to
    the register width.
    """

    center: int
    lo: int
    hi: int | float


# Upper edges of the average-current bands: a reading in
# [BAND_EDGES[k - 1], BAND_EDGES[k]) is distance k, the zero band starts at
# 0, and the top band, distance len(BAND_EDGES), has no upper edge.
BAND_EDGES = (40.0, 95.0, 140.0, 170.0, 205.0, 230.0)


def band_center(current: float) -> int:
    """The band a current reading falls into."""
    if not 0 <= current < math.inf:  # NaN fails too
        raise ValueError(f"current must be finite and >= 0, got {current}")
    return bisect_right(BAND_EDGES, current)


def midpoint(hd: int) -> float:
    """Clean synthesis anchor for a distance: its band's midpoint, and past
    the top band's lower edge one last-finite-band width per distance."""
    if hd < 0:
        raise ValueError(f"hd must be >= 0, got {hd}")
    top = len(BAND_EDGES)
    if hd < top:
        lo = BAND_EDGES[hd - 1] if hd else 0.0
        return (lo + BAND_EDGES[hd]) / 2.0
    step = BAND_EDGES[-1] - BAND_EDGES[-2]
    return BAND_EDGES[-1] + step * (hd - top)


# midpoint() of distances 0 to 15; a walk whose register moves further
# gets a longer table of the same values
_MIDPOINTS = tuple(midpoint(hd) for hd in range(16))


def synthesize_currents(
    hds: list[int], model: NoiseModel, rng: random.Random
) -> list[float]:
    """Average supply current for each clocking of a walk, at actual
    register distances ``hds``, drawing noise from ``rng`` in order.

    ``exact`` emits the band midpoint.  ``table3`` shifts the band first,
    off by 0 / +1 / -1 with probabilities ``BAND_ERROR_*`` from one
    ``rng.random()`` per nonzero distance, and emits the shifted band's
    midpoint: a zero distance is reported exactly, and a nonzero one is
    floored at band 1.  ``gaussian`` adds N(0, sigma) to the midpoint,
    truncated at 0, and keeps each sample on the right side of the zero
    band's upper edge, so the two channel properties hold: hd 0 stays
    inside the zero band, nonzero hd stays out of it.
    """
    if not hds:
        return []
    if min(hds) < 0:
        raise ValueError(f"hd must be >= 0, got {min(hds)}")
    top = max(hds) + 1  # table3 may shift a distance one band up
    mids = _MIDPOINTS
    if top >= len(mids):
        mids = tuple(map(midpoint, range(top + 1)))
    kind = model.kind
    if kind == "exact":
        return list(map(mids.__getitem__, hds))
    if kind == "table3":
        # the midpoint each distance reads at one band up, and one band
        # down, where band 1 stays band 1
        up = mids[1:]
        down = mids[:2] + mids[1:-1]
        draw = rng.random
        p0 = BAND_ERROR_P0
        p1 = BAND_ERROR_P0 + BAND_ERROR_PLUS1
        return [
            mids[hd] if not hd or (u := draw()) < p0
            else up[hd] if u < p1
            else down[hd]
            for hd in hds
        ]
    gauss, sigma = rng.gauss, model.sigma
    zero_edge = BAND_EDGES[0]
    below_zero_edge = math.nextafter(zero_edge, 0.0)
    currents = []
    for hd in hds:
        value = mids[hd] + gauss(0.0, sigma)
        if hd:
            currents.append(max(value, zero_edge))
        else:
            currents.append(min(max(value, 0.0), below_zero_edge))
    return currents


def _band_reading(center: int) -> InferredHd:
    if center == 0:
        return InferredHd(center=0, lo=0, hi=0)
    hi = math.inf if center == len(BAND_EDGES) else center + 1
    return InferredHd(center=center, lo=max(1, center - 1), hi=hi)


# one reading per band, indexed by its center
BAND_READINGS = tuple(
    _band_reading(center) for center in range(len(BAND_EDGES) + 1)
)


def infer_hd(current: float) -> InferredHd:
    """Turn a current reading into a banded distance estimate.

    Every reading in one band gets the same shared ``InferredHd``.
    """
    return BAND_READINGS[band_center(current)]


def pearson(xs, ys) -> float:
    """Pearson correlation coefficient of two equal-length sequences."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two samples")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        raise ValueError("correlation undefined for constant sequence")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    # two roots, not the root of a product: sxx * syy overflows near SIGMA_MAX
    return sxy / (math.sqrt(sxx) * math.sqrt(syy))
