"""Finite state machine model: KISS2 parsing, Mealy/Moore forms, encodings.

The machines handled here are the usual sequential-benchmark kind: a finite
set of named states, fixed-width binary input and output vectors, a reset
state, and a deterministic transition function given as explicit table rows.
Input vectors are held as plain ints (msb-first when rendered); output
vectors are held as '0'/'1' strings so width is always explicit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
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


def code_width(n: int) -> int:
    """Fewest register bits that give ``n`` states distinct codes, at least 1."""
    return max(1, (n - 1).bit_length())


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
    """One checked clocking, as :func:`step` returns it."""

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
    # product varies the last bit fastest and '0' < '1', so values ascend
    choices = ("01" if c == "-" else c for c in pattern)
    return [int("".join(bits), 2) for bits in product(*choices)]


# deletion tables: a field is well formed when nothing is left after them
_DROP_INPUT_CHARS = str.maketrans("", "", "01-")
_DROP_OUTPUT_CHARS = str.maketrans("", "", "01")


def parse_kiss2(text: str) -> MealyFsm | MooreFsm:
    """Parse KISS2 text into a machine.

    Returns a :class:`MooreFsm` when every transition entering a given state
    carries the same output vector (states that are never entered get the
    all-zero output), otherwise a :class:`MealyFsm`.  States are numbered by
    first appearance in the current-state column; states that only ever
    appear as targets are appended afterwards.  Each width is set once, by
    its directive or the first row, and the reset once, by ``.r``; a later
    value that differs is refused.  Don't-care input bits are
    expanded eagerly, so the resulting table is purely binary; a table
    that would expand past :data:`MAX_TABLE_ENTRIES` entries is refused.

    Each row is read once.  An input pattern is checked and expanded, and
    an output vector checked, the first time it appears.  A row enters
    its table entries as it is read, under its state's number and its
    target's name, and its output is held to the target's first one,
    which decides between Moore and Mealy.  Two rows that conflict are
    reported only once every row has been checked and the reset found, so
    any other refusal comes first, as it would from a table built after
    the reading.
    """
    fixed: dict[str, int | str] = {}  # ".i", ".o" and ".r" once set
    vectors_of: dict[str, list[int]] = {}  # input pattern -> its vectors
    checked_outputs: set[str] = set()
    state_ids: dict[str, int] = {}  # current-state column, first-seen order
    # next-state column, first-seen order -> output of its first row
    entered: dict[str, str] = {}
    moore = True  # every row entering a state carries one output
    # (state, vector) -> (next state name, output, line of the row)
    table: dict[tuple[int, int], tuple[str, str, int]] = {}
    conflict: NondeterminismError | None = None  # the first one met
    entries = 0  # table entries once don't-cares are expanded

    def set_once(key: str, value: int | str, what: str, lineno: int) -> None:
        earlier = fixed.setdefault(key, value)
        if earlier != value:
            noun = "reset" if key == ".r" else "width"
            raise Kiss2Error(
                f"{what} disagrees with the {noun} {earlier} set earlier", lineno
            )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if line.startswith("."):
            directive = parts[0]
            if directive == ".e":
                break
            if directive in (".i", ".o", ".p", ".s"):
                # isdecimal, not isdigit: int() refuses a digit such as '²'
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise Kiss2Error(f"bad {directive} directive", lineno)
                if directive in (".i", ".o"):  # .p and .s are advisory
                    n = int(parts[1])
                    set_once(directive, n, f"{directive} {n}", lineno)
            elif directive == ".r":
                if len(parts) != 2:
                    raise Kiss2Error("bad .r directive", lineno)
                set_once(".r", parts[1], f".r {parts[1]}", lineno)
            else:
                raise Kiss2Error(f"unknown directive {directive}", lineno)
            continue
        if len(parts) != 4:
            raise Kiss2Error(
                f"expected '<inputs> <state> <next> <outputs>', got {len(parts)} fields",
                lineno,
            )
        ins, cur, nxt, outs = parts
        # a width, once set, never changes, so a field that passed its
        # checks once passes them again
        vectors = vectors_of.get(ins)
        new_outs = outs not in checked_outputs
        if vectors is None and ins.translate(_DROP_INPUT_CHARS):
            raise Kiss2Error(f"bad input pattern {ins!r}", lineno)
        if new_outs and outs.translate(_DROP_OUTPUT_CHARS):
            raise Kiss2Error(f"bad output vector {outs!r}", lineno)
        if vectors is None and len(ins) != fixed.get(".i"):
            set_once(".i", len(ins), f"input pattern {ins!r}", lineno)
        if new_outs:
            if len(outs) != fixed.get(".o"):
                set_once(".o", len(outs), f"output vector {outs!r}", lineno)
            checked_outputs.add(outs)
        entries += 1 << ins.count("-") if vectors is None else len(vectors)
        if entries > MAX_TABLE_ENTRIES:
            raise Kiss2Error(
                f"table expands past {MAX_TABLE_ENTRIES} entries", lineno
            )
        if vectors is None:
            vectors = vectors_of[ins] = _expand_dontcare(ins)
        s = state_ids.setdefault(cur, len(state_ids))
        if entered.setdefault(nxt, outs) != outs:
            moore = False
        entry = (nxt, outs, lineno)
        for v in vectors:
            got = table.setdefault((s, v), entry)
            if got is not entry and conflict is None and got[:2] != entry[:2]:
                conflict = NondeterminismError(
                    f"state {cur!r} input {int_to_bits(v, fixed['.i'])} already "
                    f"defined differently at line {got[2]}",
                    lineno,
                )

    if not state_ids:
        raise Kiss2Error("no transition rows found")
    # the current states keep their numbers; targets alone come after
    states = list(state_ids)
    states += [name for name in entered if name not in state_ids]
    index = {name: k for k, name in enumerate(states)}
    reset_name = fixed.get(".r", states[0])
    if reset_name not in index:
        raise DanglingStateError(f"reset state {reset_name!r} never appears in a row")
    if conflict is not None:
        raise conflict

    if moore:
        zero = "0" * fixed[".o"]
        return MooreFsm(
            input_bits=fixed[".i"],
            output_bits=fixed[".o"],
            states=states,
            reset=index[reset_name],
            delta={key: index[entry[0]] for key, entry in table.items()},
            outputs=[entered.get(name, zero) for name in states],
        )
    return MealyFsm(
        input_bits=fixed[".i"],
        output_bits=fixed[".o"],
        states=states,
        reset=index[reset_name],
        transitions={
            key: (index[nxt], outs) for key, (nxt, outs, _) in table.items()
        },
    )


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
    # probed in order: sorting a recovered s386 table costs more (3.2 ms, not
    # 2.1); each input vector's bits are rendered once, not once per row
    vectors = [int_to_bits(v, m.input_bits) for v in range(1 << m.input_bits)]
    for s, name in enumerate(m.states):
        for v, bits in enumerate(vectors):
            entry = table.get((s, v))
            if entry is not None:
                nxt, out = entry
                lines.append(f"{bits} {name} {m.states[nxt]} {out}")
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
        width=code_width(m.state_count),
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
