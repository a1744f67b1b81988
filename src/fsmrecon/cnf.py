"""CNF encoding of state-identification constraints, plus DIMACS I/O.

Every position gets one propositional variable per register bit.  Each
unordered position pair that needs one gets a shared set of difference
variables, one per bit, each defined as the XOR of the two position bits.
A zero window becomes bitwise equality, any other window a
sequential-counter register over the difference variables.  Distinctness
is expanded from the output partition here: every pair of positions in
different groups gets a single at-least-one clause over its difference
variables, so the formula, unlike the constraint set, is O(N^2) in the
number of positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintSet


@dataclass
class Cnf:
    """A propositional formula over ``n_positions`` width-``width`` registers."""

    n_vars: int
    clauses: list[list[int]]
    width: int
    n_positions: int

    def var(self, p: int, b: int) -> int:
        """Variable of bit ``b`` (most significant first) of position ``p``."""
        return p * self.width + b + 1


def encode_cnf(cs: ConstraintSet) -> Cnf:
    """Encode a constraint set.

    Variables 1 .. n_positions*width are the position bits, most significant
    bit first within each position; auxiliary variables follow.  Clauses
    come in a fixed order: the windows in step order, then one
    distinctness clause per differing-group pair ``i < j``, ascending.  A
    window no width-bit distance meets (lo > min(hi, width)) contributes
    the empty clause — the only case one is ever emitted.
    """
    width = cs.width
    n_positions = cs.n_positions
    clauses: list[list[int]] = []
    n_vars = n_positions * width
    pair_diff: dict[tuple[int, int], list[int]] = {}

    def diff_vars(i: int, j: int) -> list[int]:
        nonlocal n_vars
        key = (i, j) if i < j else (j, i)
        got = pair_diff.get(key)
        if got is not None:
            return got
        ds = []
        base_i = key[0] * width
        base_j = key[1] * width
        for b in range(width):
            xi = base_i + b + 1
            xj = base_j + b + 1
            n_vars += 1
            d = n_vars
            # d <-> (xi XOR xj)
            clauses.append([-d, xi, xj])
            clauses.append([-d, -xi, -xj])
            clauses.append([d, -xi, xj])
            clauses.append([d, xi, -xj])
            ds.append(d)
        pair_diff[key] = ds
        return ds

    def counter_window(ds: list[int], lo: int, hi: int) -> None:
        """Sequential counter (Sinz, CP 2005) asserting lo <= sum(ds) <= hi,
        for 1 <= hi and lo <= min(hi, len(ds)); ``reg[k][j - 1]`` is "at
        least j of ds[:k] are true", up to the highest rank a bound reads."""
        nonlocal n_vars
        n = len(ds)
        track = hi if hi < n else lo  # highest register rank we consult
        if track == 0:
            return
        reg: list[list[int]] = [[]]
        for k in range(1, n + 1):
            reg.append(list(range(n_vars + 1, n_vars + min(k, track) + 1)))
            n_vars += len(reg[k])
        for k in range(1, n + 1):
            dk = ds[k - 1]
            prev = reg[k - 1]
            for j, skj in enumerate(reg[k], start=1):
                same = prev[j - 1:j]  # "j of ds[:k-1]", absent when j == k
                # forward: carrying j-1 and seeing dk reaches j
                if j == 1:
                    clauses.append([-dk, skj])
                else:
                    clauses.append([-prev[j - 2], -dk, skj])
                # forward: already at j stays at j
                if same:
                    clauses.append([-same[0], skj])
                # backward: reaching j needs a justification
                clauses.append([-skj, *same, dk])
                if j > 1:
                    clauses.append([-skj, *same, prev[j - 2]])
        # one more true bit past a full register would exceed hi
        for k in range(hi + 1, n + 1):
            clauses.append([-ds[k - 1], -reg[k - 1][hi - 1]])
        if lo >= 1:
            clauses.append([reg[n][lo - 1]])

    for k, (lo, hi) in enumerate(cs.windows):
        if lo > min(hi, width):
            clauses.append([])
        elif hi == 0:
            for xi in range(k * width + 1, (k + 1) * width + 1):
                xj = xi + width
                clauses.append([-xi, xj])
                clauses.append([xi, -xj])
        else:
            counter_window(diff_vars(k, k + 1), lo, hi)
    groups = cs.groups
    for i, gi in enumerate(groups):
        for j in range(i + 1, n_positions):
            if groups[j] != gi:
                clauses.append(list(diff_vars(i, j)))

    return Cnf(
        n_vars=n_vars, clauses=clauses, width=width, n_positions=n_positions
    )


def decode_positions(cnf: Cnf, model: list[int]) -> list[int]:
    """Position register values from a solver model (assigns[var] in {1,-1})."""
    values = []
    for p in range(cnf.n_positions):
        v = 0
        for b in range(cnf.width):
            v = (v << 1) | (1 if model[cnf.var(p, b)] > 0 else 0)
        values.append(v)
    return values


def to_dimacs(cnf: Cnf) -> str:
    """Standard DIMACS CNF text."""
    lines = [f"p cnf {cnf.n_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        if clause:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        else:
            lines.append("0")
    return "\n".join(lines) + "\n"


def variable_map_text(cnf: Cnf) -> str:
    """Sidecar mapping ``position bit variable``, one line each."""
    lines = ["# position bit variable"]
    for p in range(cnf.n_positions):
        for b in range(cnf.width):
            lines.append(f"{p} {b} {cnf.var(p, b)}")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Read DIMACS CNF text: (variable count, clauses)."""
    n_vars: int | None = None
    n_clauses: int | None = None
    clauses: list[list[int]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ValueError(f"line {lineno}: second problem line {line!r}")
            parts = line.split()
            # counts and literals are plain ASCII decimal: int() would also
            # read '+1', '1_0' and other scripts' digits
            if len(parts) != 4 or parts[1] != "cnf" or not all(
                c.isascii() and c.isdigit() for c in parts[2:]
            ):
                raise ValueError(f"line {lineno}: bad problem line {line!r}")
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            continue
        if n_vars is None:
            raise ValueError(f"line {lineno}: clause before problem line")
        for tok in line.split():
            digits = tok[1:] if tok.startswith("-") else tok
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"line {lineno}: bad literal {tok!r}")
            lit = int(tok)
            if lit == 0:
                clauses.append(pending)
                pending = []
            else:
                if not 1 <= abs(lit) <= n_vars:
                    raise ValueError(f"line {lineno}: literal {lit} out of range")
                pending.append(lit)
    if pending:
        raise ValueError("last clause is not 0-terminated")
    if n_vars is None:
        raise ValueError("missing problem line")
    if n_clauses is not None and n_clauses != len(clauses):
        raise ValueError(f"problem line declares {n_clauses} clauses, found {len(clauses)}")
    return n_vars, clauses
