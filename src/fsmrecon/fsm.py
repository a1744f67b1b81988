"""Finite state machine model: KISS2 parsing, Mealy/Moore forms, encodings.

The machines handled here are the usual sequential-benchmark kind: a finite
set of named states, fixed-width binary input and output vectors, a reset
state, and a deterministic transition function given as explicit table rows.
Input vectors are held as plain ints (msb-first when rendered); output
vectors are held as '0'/'1' strings so width is always explicit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

# don't-care expansion doubles a row per '-'; the largest bundled table
# (s386) has 1,664 entries
MAX_TABLE_ENTRIES = 1 << 16


class Kiss2Error(ValueError):
    """Malformed KISS2 input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NondeterminismError(Kiss2Error):
    """Two table rows give conflicting behavior for one (state, input) pair."""


class DanglingStateError(Kiss2Error):
    """A directive references a state that no table row declares."""


class IncompleteMachineError(ValueError):
    """An operation that needs a completely specified machine got a partial one."""


def int_to_bits(value: int, width: int) -> str:
    """Render ``value`` as an msb-first '0'/'1' string of ``width`` bits."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


@dataclass
class MealyFsm:
    """Transition-table machine whose outputs live on the edges."""

    input_bits: int
    output_bits: int
    states: list[str]
    reset: int
    # (state index, input vector) -> (next state index, output vector)
    transitions: dict[tuple[int, int], tuple[int, str]]

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def is_complete(self) -> bool:
        return len(self.transitions) == self.state_count * (1 << self.input_bits)


@dataclass
class MooreFsm:
    """Transition-table machine whose outputs live on the states.

    ``outputs[s]`` is the vector emitted while the machine sits in state
    ``s``; by convention the output observed on a transition is the output
    of the state being entered.  ``delta`` may be partial: a graph
    recovered by an attack is a MooreFsm with states ``s0 .. s{n-1}``,
    reset 0 and only the transitions observed so far.
    """

    input_bits: int
    output_bits: int
    states: list[str]
    reset: int
    delta: dict[tuple[int, int], int]
    outputs: list[str]

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def is_complete(self) -> bool:
        return len(self.delta) == self.state_count * (1 << self.input_bits)

    def require_complete(self) -> None:
        if not self.is_complete:
            missing = self.state_count * (1 << self.input_bits) - len(self.delta)
            raise IncompleteMachineError(
                f"machine is missing {missing} (state, input) table entries"
            )


@dataclass
class EncodedFsm:
    """A Moore machine with its state register: ``encodings[s]`` is the
    ``width``-bit value the register holds while the machine is in state
    ``s``."""

    machine: MooreFsm
    encodings: list[int]
    width: int


class StepResult(NamedTuple):
    """One clocking; a tuple, so a step table of them is cheap to build."""

    next_state: int
    output: str
    hd: int


def transition_count(m: MealyFsm | MooreFsm) -> int:
    """Number of table entries after don't-care expansion."""
    if isinstance(m, MooreFsm):
        return len(m.delta)
    return len(m.transitions)


# --------------------------------------------------------------------------
# KISS2 reading and writing
# --------------------------------------------------------------------------


def _expand_dontcare(pattern: str) -> list[int]:
    """All input vectors matched by a 0/1/- pattern, ascending."""
    if "-" not in pattern:
        return [int(pattern, 2)]
    values = [0]
    for c in pattern:
        if c == "0":
            values = [v << 1 for v in values]
        elif c == "1":
            values = [(v << 1) | 1 for v in values]
        else:  # '-'
            values = [v << 1 for v in values] + [(v << 1) | 1 for v in values]
    return sorted(values)


# deletion tables: a field is well formed when nothing is left after them
_DROP_INPUT_CHARS = str.maketrans("", "", "01-")
_DROP_OUTPUT_CHARS = str.maketrans("", "", "01")


def parse_kiss2(text: str) -> MealyFsm | MooreFsm:
    """Parse KISS2 text into a machine.

    Returns a :class:`MooreFsm` when every transition entering a given state
    carries the same output vector (states that are never entered get the
    all-zero output), otherwise a :class:`MealyFsm`.  States are numbered by
    first appearance in the current-state column; states that only ever
    appear as targets are appended afterwards.  Don't-care input bits are
    expanded eagerly, so the resulting table is purely binary; a table
    that would expand past :data:`MAX_TABLE_ENTRIES` entries is refused.
    """
    input_bits: int | None = None
    output_bits: int | None = None
    reset_name: str | None = None
    rows: list[tuple[int, str, str, str, str]] = []  # (line, in, cur, nxt, out)
    entries = 0  # table entries once don't-cares are expanded

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive == ".e":
                break
            if directive in (".i", ".o", ".p", ".s"):
                if len(parts) != 2 or not parts[1].isdigit():
                    raise Kiss2Error(f"bad {directive} directive", lineno)
                n = int(parts[1])
                # .p and .s are advisory row/state counts; not enforced.
                # A width set by a row or an earlier directive stays.
                if directive in (".i", ".o"):
                    width = input_bits if directive == ".i" else output_bits
                    if width not in (None, n):
                        raise Kiss2Error(
                            f"{directive} {n} disagrees with the width {width} set earlier",
                            lineno,
                        )
                    if directive == ".i":
                        input_bits = n
                    else:
                        output_bits = n
            elif directive == ".r":
                if len(parts) != 2:
                    raise Kiss2Error("bad .r directive", lineno)
                reset_name = parts[1]
            else:
                raise Kiss2Error(f"unknown directive {directive}", lineno)
            continue
        parts = line.split()
        if len(parts) != 4:
            raise Kiss2Error(
                f"expected '<inputs> <state> <next> <outputs>', got {len(parts)} fields",
                lineno,
            )
        ins, cur, nxt, outs = parts
        if not ins or ins.translate(_DROP_INPUT_CHARS):
            raise Kiss2Error(f"bad input pattern {ins!r}", lineno)
        if not outs or outs.translate(_DROP_OUTPUT_CHARS):
            raise Kiss2Error(f"bad output vector {outs!r}", lineno)
        if input_bits is None:
            input_bits = len(ins)
        elif len(ins) != input_bits:
            raise Kiss2Error(
                f"input pattern {ins!r} has {len(ins)} bits, expected {input_bits}",
                lineno,
            )
        if output_bits is None:
            output_bits = len(outs)
        elif len(outs) != output_bits:
            raise Kiss2Error(
                f"output vector {outs!r} has {len(outs)} bits, expected {output_bits}",
                lineno,
            )
        entries += 1 << ins.count("-")
        if entries > MAX_TABLE_ENTRIES:
            raise Kiss2Error(
                f"table expands past {MAX_TABLE_ENTRIES} entries", lineno
            )
        rows.append((lineno, ins, cur, nxt, outs))

    if not rows:
        raise Kiss2Error("no transition rows found")
    assert input_bits is not None and output_bits is not None

    states: list[str] = []
    index: dict[str, int] = {}
    for _, _, cur, _, _ in rows:
        if cur not in index:
            index[cur] = len(states)
            states.append(cur)
    for _, _, _, nxt, _ in rows:
        if nxt not in index:
            index[nxt] = len(states)
            states.append(nxt)

    if reset_name is None:
        reset = index[rows[0][2]]
    elif reset_name in index:
        reset = index[reset_name]
    else:
        raise DanglingStateError(f"reset state {reset_name!r} never appears in a row")

    transitions: dict[tuple[int, int], tuple[int, str]] = {}
    origin: dict[tuple[int, int], int] = {}
    for lineno, ins, cur, nxt, outs in rows:
        s = index[cur]
        entry = (index[nxt], outs)
        for v in _expand_dontcare(ins):
            key = (s, v)
            if key in transitions:
                if transitions[key] != entry:
                    raise NondeterminismError(
                        f"state {cur!r} input {int_to_bits(v, input_bits)} already "
                        f"defined differently at line {origin[key]}",
                        lineno,
                    )
            else:
                transitions[key] = entry
                origin[key] = lineno

    mealy = MealyFsm(
        input_bits=input_bits,
        output_bits=output_bits,
        states=states,
        reset=reset,
        transitions=transitions,
    )
    return _as_moore(mealy) or mealy


def _as_moore(m: MealyFsm) -> MooreFsm | None:
    """Reinterpret a Mealy table as Moore if every state is entered consistently."""
    outputs: list[str | None] = [None] * m.state_count
    for nxt, out in m.transitions.values():
        if outputs[nxt] is None:
            outputs[nxt] = out
        elif outputs[nxt] != out:
            return None
    return _moore(m, outputs)


def _moore(m: MealyFsm, outputs: list[str | None]) -> MooreFsm:
    """``m``'s transitions with ``outputs`` on the states; a state whose
    output is None, one never entered, gets the all-zero vector."""
    zero = "0" * m.output_bits
    return MooreFsm(
        input_bits=m.input_bits,
        output_bits=m.output_bits,
        states=list(m.states),
        reset=m.reset,
        delta={key: nxt for key, (nxt, _) in m.transitions.items()},
        outputs=[out if out is not None else zero for out in outputs],
    )


def serialize_kiss2(m: MealyFsm | MooreFsm) -> str:
    """Render a machine as KISS2 text.

    Rows are emitted fully expanded (no don't-care recompression), grouped by
    source state in declaration order and sorted by input vector, so parsing
    the result reproduces the same machine with the same state order.  Moore
    machines are emitted Moore-annotated: every row entering a state carries
    that state's output vector.
    """
    if isinstance(m, MooreFsm):
        table = {key: (nxt, m.outputs[nxt]) for key, nxt in m.delta.items()}
    else:
        table = m.transitions
    lines = [
        f".i {m.input_bits}",
        f".o {m.output_bits}",
        f".p {len(table)}",
        f".s {len(m.states)}",
        f".r {m.states[m.reset]}",
    ]
    for s in range(len(m.states)):
        for v in range(1 << m.input_bits):
            entry = table.get((s, v))
            if entry is None:
                continue
            nxt, out = entry
            lines.append(
                f"{int_to_bits(v, m.input_bits)} {m.states[s]} {m.states[nxt]} {out}"
            )
    lines.append(".e")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Mealy -> Moore conversion and encodings
# --------------------------------------------------------------------------

MOORIFY_STRATEGIES = ("first", "majority")


def moorify(m: MealyFsm, strategy: str = "first") -> MooreFsm:
    """Re-home edge outputs onto states, keeping every transition intact.

    Each state's output comes from the outputs of its incoming transitions:
    ``first`` takes the lexicographically first incoming transition by
    (source-state index, input vector); ``majority`` takes the most common
    incoming output, breaking ties by the same order.  A state that is never
    entered (e.g. an unentered reset state) gets the all-zero vector.  The
    result generally changes the observed output sequence — transitions are
    preserved, output placement is not.
    """
    if strategy not in MOORIFY_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {MOORIFY_STRATEGIES}")

    incoming: list[list[tuple[int, int, str]]] = [[] for _ in m.states]
    for (src, v), (nxt, out) in m.transitions.items():
        incoming[nxt].append((src, v, out))

    outputs: list[str | None] = []
    for entries in incoming:
        entries.sort()
        if strategy == "majority" and entries:
            tally = Counter(out for _, _, out in entries)
            best = max(tally.values())
            entries = [e for e in entries if tally[e[2]] == best]
        outputs.append(entries[0][2] if entries else None)
    moore = _moore(m, outputs)
    moore.require_complete()  # the same table entries as ``m``
    return moore


def assign_binary_encoding(m: MooreFsm) -> EncodedFsm:
    """Give state k the register value k, at the minimal width for the state count."""
    m.require_complete()
    return EncodedFsm(
        machine=m,
        encodings=list(range(m.state_count)),
        width=max(1, math.ceil(math.log2(m.state_count))),
    )


def step(e: EncodedFsm, state: int, vector: int) -> StepResult:
    """Clock the encoded machine once: next state, its output, register HD."""
    m = e.machine
    if not 0 <= state < m.state_count:
        raise ValueError(f"unknown state index {state}")
    if not 0 <= vector < (1 << m.input_bits):
        raise ValueError(f"input vector {vector} does not fit in {m.input_bits} bits")
    try:
        nxt = m.delta[(state, vector)]
    except KeyError:
        raise IncompleteMachineError(
            f"no transition for state {m.states[state]!r}, "
            f"input {int_to_bits(vector, m.input_bits)}"
        ) from None
    return StepResult(
        next_state=nxt,
        output=m.outputs[nxt],
        hd=(e.encodings[state] ^ e.encodings[nxt]).bit_count(),
    )
