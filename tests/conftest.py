"""Shared helpers: synthetic traces and encoded fixture machines."""

import pytest

from fsmrecon import benchmarks
from fsmrecon.capture import Trace
from fsmrecon.channel import midpoint
from fsmrecon.fsm import (
    MooreFsm,
    assign_binary_encoding,
    int_to_bits,
    moorify,
    parse_kiss2,
)


def synthetic_trace(outputs, centers, seed=0, input_bits=1, stimulus=None) -> Trace:
    """A hand-built trace: outputs per position, band centers per step.

    Each step's current is its center's band midpoint, so the trace reads
    back the given centers; a center past the top band reads as the top.
    """
    outputs = list(outputs)
    centers = list(centers)
    assert len(outputs) == len(centers) + 1
    width = len(outputs[0])
    return Trace(
        input_bits=input_bits,
        output_bits=width,
        stimulus=list(stimulus) if stimulus is not None else [0] * len(centers),
        outputs=outputs,
        currents=[midpoint(c) for c in centers],
        seed=seed,
    )


def encoded_fixture(name: str):
    """Parse a benchmark, Moore-convert if needed, binary-encode."""
    m = parse_kiss2(benchmarks.load(name))
    if not isinstance(m, MooreFsm):
        m = moorify(m)
    return assign_binary_encoding(m)


def random_moore(rng, n_states, input_bits, output_bits) -> MooreFsm:
    """A complete Moore machine drawn from ``rng``: random reset, successors
    and outputs, so states may share outputs and some may be unreachable."""
    return MooreFsm(
        input_bits,
        output_bits,
        [f"q{k}" for k in range(n_states)],
        rng.randrange(n_states),
        {
            (s, v): rng.randrange(n_states)
            for s in range(n_states)
            for v in range(1 << input_bits)
        },
        [int_to_bits(rng.randrange(1 << output_bits), output_bits)
         for _ in range(n_states)],
    )


@pytest.fixture
def lion_encoded():
    return encoded_fixture("lion")


def machine_trace(name, steps, seed, noise=None):
    """Capture a trace from a benchmark machine walk."""
    from fsmrecon.capture import BlackBoxDevice, gen_stimulus, run_trace
    from fsmrecon.channel import NoiseModel

    enc = encoded_fixture(name)
    dev = BlackBoxDevice(enc, noise or NoiseModel.exact(), noise_seed=seed)
    stim = gen_stimulus(steps, enc.machine.input_bits, seed)
    return enc, run_trace(dev, stim, seed=seed)


def true_state_sequence(encoded, stimulus):
    """Ground-truth state id per trace position for a stimulus replay."""
    m = encoded.machine
    states = [m.reset]
    s = m.reset
    for vec in stimulus:
        s = m.delta[(s, vec)]
        states.append(s)
    return states


def unit_propagate_complete(n_vars, clauses, fixed):
    """Independent propagation oracle.

    ``fixed`` maps variable -> bool.  Returns (status, assignment) where
    status is "sat" (every variable got forced, all clauses hold),
    "conflict", or "stuck" (propagation halted with variables still free).
    """
    assign = [0] * (n_vars + 1)  # 0 unknown, 1 true, -1 false
    for var, val in fixed.items():
        assign[var] = 1 if val else -1
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = []
            satisfied = False
            for lit in clause:
                v = assign[abs(lit)]
                if v == 0:
                    unassigned.append(lit)
                elif (v > 0) == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return "conflict", assign
            if len(unassigned) == 1:
                lit = unassigned[0]
                assign[abs(lit)] = 1 if lit > 0 else -1
                changed = True
    if any(a == 0 for a in assign[1:]):
        return "stuck", assign
    return "sat", assign


def cnf_projection_status(cnf, values, owners=range(0)):
    """SAT status of a CNF under a full position-value assignment, decided
    by unit propagation alone.

    Every auxiliary before ``owners`` must be forced by the position bits.
    The variables from ``owners`` on, the code owners and then the
    at-most-one-owner chain, may stay open: setting every open owner false
    must then force the rest without a conflict.  Returns "sat",
    "conflict", or "stuck" when the formula breaks that contract.
    """
    fixed = {}
    for p, value in enumerate(values):
        for b in range(cnf.width):
            fixed[cnf.var(p, b)] = bool((value >> (cnf.width - 1 - b)) & 1)
    status, assign = unit_propagate_complete(cnf.n_vars, cnf.clauses, fixed)
    if status != "stuck" or not owners:
        return status
    open_vars = [v for v in range(1, cnf.n_vars + 1) if not assign[v]]
    if open_vars[0] < owners.start:
        return "stuck"
    forced = {v: assign[v] > 0 for v in range(1, cnf.n_vars + 1) if assign[v]}
    forced.update((v, False) for v in open_vars if v in owners)
    status, _ = unit_propagate_complete(cnf.n_vars, cnf.clauses, forced)
    return "sat" if status == "sat" else "stuck"
