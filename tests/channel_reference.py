"""Verbatim copies of the device's noise and walk as they were while the
channel synthesized one current per call: ``sample_error`` and
``synthesize_current`` from ``fsmrecon.channel``, and
``BlackBoxDevice.walk``, which range-checked each vector and called
``synthesize_current`` once per clock, as :class:`ReferenceDevice`'s
``walk``.  ``gen_stimulus`` is the stimulus generator of that time, one
``getrandbits`` call per vector in a comprehension.

``test_channel.py`` and ``test_capture.py`` require the channel's
one-call-per-walk ``synthesize_currents`` and the device's walk to make
the same draws, return the same floats and leave the generator and the
device in the same state as these.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from fsmrecon.capture import BlackBoxDevice
from fsmrecon.channel import (
    BAND_EDGES,
    BAND_ERROR_P0,
    BAND_ERROR_PLUS1,
    NoiseModel,
    midpoint,
)

# midpoint() of distances 0 to 15, read by synthesize_current; a wider
# register falls back to computing it
_MIDPOINTS = tuple(midpoint(hd) for hd in range(16))


def sample_error(hd: int, rng: random.Random) -> int:
    """``table3`` band error for one clocking at actual distance ``hd``.

    Zero distance is reported exactly, and a nonzero distance never
    collapses to zero (the reported band is floored at 1).
    """
    if hd == 0:
        return 0
    u = rng.random()
    if u < BAND_ERROR_P0:
        err = 0
    elif u < BAND_ERROR_P0 + BAND_ERROR_PLUS1:
        err = 1
    else:
        err = -1
    return max(1, hd + err) - hd


def synthesize_current(hd: int, model: NoiseModel, rng: random.Random) -> float:
    """Average supply current for one clocking at actual distance ``hd``.

    ``exact`` emits the band midpoint; ``table3`` shifts the band first and
    emits the shifted band's midpoint; ``gaussian`` adds N(0, sigma) to the
    midpoint, truncated at 0.  Gaussian samples are additionally kept on the
    right side of the zero band's upper edge so the two channel properties
    hold: hd 0 stays inside the zero band, nonzero hd stays out of it.
    """
    if hd < 0:
        raise ValueError(f"hd must be >= 0, got {hd}")
    kind = model.kind
    if kind == "table3":
        hd += sample_error(hd, rng)
    mid = _MIDPOINTS[hd] if hd < len(_MIDPOINTS) else midpoint(hd)
    if kind != "gaussian":
        return mid
    value = mid + rng.gauss(0.0, model.sigma)
    zero_edge = BAND_EDGES[0]
    if hd == 0:
        return min(max(value, 0.0), math.nextafter(zero_edge, 0.0))
    return max(value, zero_edge)


class ReferenceDevice(BlackBoxDevice):
    """The device with the walk that synthesized one current per clock."""

    def walk(self, stimulus: Iterable[int]) -> tuple[list[str], list[float]]:
        """Apply each input vector in turn: the outputs and current readings.

        An out-of-range vector raises ValueError, and the device keeps the
        state the vectors before it reached, with noise drawn for those
        vectors only; a list index alone would accept a negative one.
        """
        table = self._table
        n_vectors = 1 << self.input_bits
        noise, rng = self._noise, self._rng
        state = self._state
        outputs: list[str] = []
        currents: list[float] = []
        try:
            for vector in stimulus:
                if not 0 <= vector < n_vectors:
                    raise ValueError(
                        f"input vector {vector} does not fit in "
                        f"{self.input_bits} bits"
                    )
                state, output, hd = table[state][vector]
                outputs.append(output)
                currents.append(synthesize_current(hd, noise, rng))
        finally:
            self._state = state
        return outputs, currents


def gen_stimulus(count: int, input_bits: int, seed: int) -> list[int]:
    """``count`` uniformly random input vectors from a seeded generator."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    return [rng.getrandbits(input_bits) for _ in range(count)]
