"""Black-box capture: drive a hidden machine, record outputs and currents.

The device under attack exposes reset, a clock input, the functional output
vector, and an average-current reading per clock — nothing else.  A capture
run is a seeded random stimulus replayed from reset; the resulting trace
holds the observed output sequence, the per-step current, and the banded
distance estimate inferred from each current.  The device walks the whole
stimulus through its step table and asks the channel for the walk's
readings in one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

from .channel import InferredHd, NoiseModel, infer_hd, synthesize_currents
from .fsm import EncodedFsm


class BlackBoxDevice:
    """A sequential circuit observed only through outputs and supply current.

    The device owns its noise generator, so captured noise depends only on
    the noise seed and the clocking sequence — never on how the stimulus
    was produced.  Its step table is built once, straight from the
    machine's ``delta`` and the register ``encodings``: for every (state,
    input vector), the next state, its output and the register distance.
    ``walk`` checks the whole stimulus's range once, clocks each vector
    with one table read and asks the channel for the walk's readings in
    one call.
    """

    def __init__(self, encoded: EncodedFsm, noise: NoiseModel, noise_seed: int):
        m = encoded.machine
        m.require_complete()
        self._encoded = encoded
        self._noise = noise
        self._noise_seed = noise_seed
        self._rng = random.Random(noise_seed)
        self._state = m.reset
        codes = encoded.encodings
        vectors = range(1 << m.input_bits)
        self._table = [
            [
                (nxt, m.outputs[nxt], (codes[s] ^ codes[nxt]).bit_count())
                for nxt in (m.delta[s, v] for v in vectors)
            ]
            for s in range(m.state_count)
        ]

    @property
    def input_bits(self) -> int:
        return self._encoded.machine.input_bits

    @property
    def output_bits(self) -> int:
        return self._encoded.machine.output_bits

    def reset(self) -> str:
        """Pulse reset: return to the reset state and report its output."""
        self._rng = random.Random(self._noise_seed)
        self._state = self._encoded.machine.reset
        return self._encoded.machine.outputs[self._state]

    def walk(self, stimulus: Iterable[int]) -> tuple[list[str], list[float]]:
        """Apply each input vector in turn: the outputs and current readings.

        One range check with ``min`` and ``max`` covers the whole stimulus;
        the walk then only reads the step table, and the channel gives the
        walk's readings in one call.  An out-of-range vector raises
        ValueError, and the device keeps the state the vectors before it
        reached, with noise drawn for those vectors only; a list index
        alone would accept a negative one.
        """
        vectors = list(stimulus)
        n_vectors = 1 << self.input_bits
        bad = None
        if vectors and not (0 <= min(vectors) and max(vectors) < n_vectors):
            bad = next(v for v in vectors if not 0 <= v < n_vectors)
            vectors = vectors[: vectors.index(bad)]
        table = self._table
        state = self._state
        outputs: list[str] = []
        hds: list[int] = []
        for vector in vectors:
            state, output, hd = table[state][vector]
            outputs.append(output)
            hds.append(hd)
        self._state = state
        currents = synthesize_currents(hds, self._noise, self._rng)
        if bad is not None:
            raise ValueError(
                f"input vector {bad} does not fit in "
                f"{self.input_bits} bits"
            )
        return outputs, currents


@dataclass
class Trace:
    """One capture run: N input vectors, N+1 outputs, N current readings.

    ``inferred`` and ``groups`` are not passed in but computed when the
    trace is built: ``inferred`` is ``infer_hd`` of each current, and equal
    bands give the same shared ``InferredHd`` object, which is frozen;
    ``groups`` is :func:`output_groups` of the outputs, read by the state
    guess, the width bound and every constraint set built from the trace.
    """

    input_bits: int
    output_bits: int
    stimulus: list[int]
    outputs: list[str]
    currents: list[float]
    seed: int
    inferred: list[InferredHd] = field(init=False)
    groups: list[int] = field(init=False)

    @property
    def n_steps(self) -> int:
        return len(self.stimulus)

    def __post_init__(self):
        n = len(self.stimulus)
        if len(self.outputs) != n + 1:
            raise ValueError(f"expected {n + 1} outputs, got {len(self.outputs)}")
        if len(self.currents) != n:
            raise ValueError("currents must have one entry per step")
        # one infer_hd per distinct current: a banded channel emits few
        band: dict[float, InferredHd] = {}
        self.inferred = [
            band.get(c) or band.setdefault(c, infer_hd(c)) for c in self.currents
        ]
        self.groups = output_groups(self.outputs)


def output_groups(outputs: list[str]) -> list[int]:
    """Dense output-group id per position, numbered in first-seen order."""
    ids: dict[str, int] = {}
    return [ids.setdefault(out, len(ids)) for out in outputs]


def choose_vector_count(state_count: int, input_bits: int) -> int:
    """Stimulus length for one capture: 2 * states * 2**input_bits.

    Twice the transition count gives a random walk a fair chance of
    exercising each transition at least once.
    """
    if state_count < 1:
        raise ValueError(f"state count must be >= 1, got {state_count}")
    if input_bits < 1:
        raise ValueError(f"input bits must be >= 1, got {input_bits}")
    return 2 * state_count << input_bits


def gen_stimulus(count: int, input_bits: int, seed: int) -> list[int]:
    """``count`` uniformly random input vectors from a seeded generator."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    return list(map(rng.getrandbits, repeat(input_bits, count)))


def run_trace(device: BlackBoxDevice, stimulus: list[int], seed: int) -> Trace:
    """Reset the device and replay ``stimulus``, recording everything seen."""
    outputs = [device.reset()]
    more, currents = device.walk(stimulus)
    outputs += more
    return Trace(
        input_bits=device.input_bits,
        output_bits=device.output_bits,
        stimulus=list(stimulus),
        outputs=outputs,
        currents=currents,
        seed=seed,
    )
