"""A verbatim copy of ``fsmrecon.fsm.parse_kiss2``, with the ``_as_moore``
and ``_moore`` it called, as it was before it read each row once: a first
pass over the lines checks every row and directive and collects the rows,
a second pass numbers the states and expands each row's don't-cares again
to fill the table, rescanning every row for the origin of a conflict,
and the finished Mealy table is then tried as a Moore one.

``test_fsm.py`` parses the same generated KISS2 texts with both and
requires equal machines, or errors of one type, message and line.

``serialize_kiss2`` is the writer as it was while it probed every
(state, input vector) pair in order; ``test_fsm.py`` requires the same
text from the writer that sorts the rows once.
"""

from __future__ import annotations

from itertools import product

from fsmrecon.fsm import (
    MAX_TABLE_ENTRIES,
    DanglingStateError,
    Kiss2Error,
    MealyFsm,
    MooreFsm,
    NondeterminismError,
    int_to_bits,
)


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
    """
    fixed: dict[str, int | str] = {}  # ".i", ".o" and ".r" once set
    rows: list[tuple[int, str, str, str, str]] = []  # (line, in, cur, nxt, out)
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
        if ins.translate(_DROP_INPUT_CHARS):
            raise Kiss2Error(f"bad input pattern {ins!r}", lineno)
        if outs.translate(_DROP_OUTPUT_CHARS):
            raise Kiss2Error(f"bad output vector {outs!r}", lineno)
        # compared here, so the helper runs only to set or refuse a width
        if len(ins) != fixed.get(".i"):
            set_once(".i", len(ins), f"input pattern {ins!r}", lineno)
        if len(outs) != fixed.get(".o"):
            set_once(".o", len(outs), f"output vector {outs!r}", lineno)
        entries += 1 << ins.count("-")
        if entries > MAX_TABLE_ENTRIES:
            raise Kiss2Error(
                f"table expands past {MAX_TABLE_ENTRIES} entries", lineno
            )
        rows.append((lineno, ins, cur, nxt, outs))

    if not rows:
        raise Kiss2Error("no transition rows found")
    states = list(dict.fromkeys([r[2] for r in rows] + [r[3] for r in rows]))
    index = {name: k for k, name in enumerate(states)}
    reset_name = fixed.get(".r", rows[0][2])
    if reset_name not in index:
        raise DanglingStateError(f"reset state {reset_name!r} never appears in a row")

    transitions: dict[tuple[int, int], tuple[int, str]] = {}
    for lineno, ins, cur, nxt, outs in rows:
        s = index[cur]
        entry = (index[nxt], outs)
        for v in _expand_dontcare(ins):
            if transitions.setdefault((s, v), entry) != entry:
                origin = next(  # the first row covering (cur, v) set it
                    r[0] for r in rows if r[2] == cur and v in _expand_dontcare(r[1])
                )
                raise NondeterminismError(
                    f"state {cur!r} input {int_to_bits(v, fixed['.i'])} already "
                    f"defined differently at line {origin}",
                    lineno,
                )

    mealy = MealyFsm(
        input_bits=fixed[".i"],
        output_bits=fixed[".o"],
        states=states,
        reset=index[reset_name],
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
