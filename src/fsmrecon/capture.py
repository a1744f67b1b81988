"""Black-box capture: drive a hidden machine, record outputs and currents.

The device under attack exposes reset, a clock input, the functional output
vector, and an average-current reading per clock — nothing else.  A capture
run is a seeded random stimulus replayed from reset; the resulting trace
holds the observed output sequence, the per-step current, and the banded
distance estimate inferred from each current.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .channel import InferredHd, NoiseModel, infer_hd, synthesize_current
from .fsm import EncodedFsm, step


class BlackBoxDevice:
    """A sequential circuit observed only through outputs and supply current.

    The device owns its noise generator, so captured noise depends only on
    the noise seed and the clocking sequence — never on how the stimulus
    was produced.
    """

    def __init__(self, encoded: EncodedFsm, noise: NoiseModel, noise_seed: int):
        encoded.machine.require_complete()
        self._encoded = encoded
        self._noise = noise
        self._noise_seed = noise_seed
        self._rng = random.Random(noise_seed)
        self._state = encoded.machine.reset

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

    def clock(self, vector: int) -> tuple[str, float]:
        """Apply one input vector: the new output and the current reading."""
        res = step(self._encoded, self._state, vector)
        self._state = res.next_state
        current = synthesize_current(res.hd, self._noise, self._rng)
        return res.output, current


@dataclass
class Trace:
    """One capture run: N input vectors, N+1 outputs, N current readings.

    ``inferred`` is not passed in: it is ``infer_hd`` of each current,
    computed when the trace is built.
    """

    input_bits: int
    output_bits: int
    stimulus: list[int]
    outputs: list[str]
    currents: list[float]
    seed: int
    inferred: list[InferredHd] = field(init=False)

    @property
    def n_steps(self) -> int:
        return len(self.stimulus)

    def __post_init__(self):
        n = len(self.stimulus)
        if len(self.outputs) != n + 1:
            raise ValueError(f"expected {n + 1} outputs, got {len(self.outputs)}")
        if len(self.currents) != n:
            raise ValueError("currents must have one entry per step")
        self.inferred = [infer_hd(c) for c in self.currents]


def choose_vector_count(state_count: int, input_bits: int, multiplier: float = 2.0) -> int:
    """Stimulus length for one capture: ceil(multiplier * states * 2**input_bits).

    The multiplier is at least 2 so a random walk has a fair chance of
    exercising each transition at least once.
    """
    if state_count < 1:
        raise ValueError(f"state count must be >= 1, got {state_count}")
    if input_bits < 1:
        raise ValueError(f"input bits must be >= 1, got {input_bits}")
    if not 2.0 <= multiplier < math.inf:  # NaN fails too
        raise ValueError(
            f"multiplier must be finite and >= 2.0, got {multiplier}"
        )
    return math.ceil(multiplier * state_count * (1 << input_bits))


def gen_stimulus(count: int, input_bits: int, seed: int) -> list[int]:
    """``count`` uniformly random input vectors from a seeded generator."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    return [rng.getrandbits(input_bits) for _ in range(count)]


def run_trace(device: BlackBoxDevice, stimulus: list[int], seed: int) -> Trace:
    """Reset the device and replay ``stimulus``, recording everything seen."""
    outputs = [device.reset()]
    currents: list[float] = []
    for vector in stimulus:
        out, current = device.clock(vector)
        outputs.append(out)
        currents.append(current)
    return Trace(
        input_bits=device.input_bits,
        output_bits=device.output_bits,
        stimulus=list(stimulus),
        outputs=outputs,
        currents=currents,
        seed=seed,
    )
