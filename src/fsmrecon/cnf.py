"""CNF encoding of state-identification constraints, plus DIMACS I/O.

Every position gets one propositional variable per register bit.  Each
step with a nonzero window gets difference variables, one per bit, each
defined as the XOR of the two positions' bits.  A zero window becomes
bitwise equality, any other window a sequential-counter register over
the difference variables.  Distinctness stays a partition: a
code-ownership table over the width's 2^w codes says which output group
owns each code, every position's code is owned by its group, and no code
has two owners (Heule & Verwer, "Exact DFA Identification Using SAT
Solvers", ICGI 2010).  Only the direction "p holds c implies its group
owns c" is encoded, as the formula never reads the other one (Plaisted &
Greenbaum, J. Symb. Comput. 1986), so an owner is not a function of the
position bits.  The formula is O(N * 2^w * w) in the number of positions
N, with no clause per pair of positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintSet


@dataclass
class Cnf:
    """A propositional formula over ``n_positions`` width-``width`` registers.

    Variables 1 .. n_positions*width are the position bits; the rest are
    auxiliaries, laid out as :func:`encode_cnf` says.
    """

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
    bit first within each position.  The windows' auxiliaries follow, each
    one a function of the position bits.  With two or more output groups,
    ``owner[g][c]`` ("output group g owns code c") comes next, group by
    group in first-seen order and code by code, then the chain variables.
    Owners and chain variables are not functions of the position bits: an
    owner of a code no member of its group holds is free.  Clauses come in
    a fixed order:

    - the windows, in step order: a zero window is 2 binary clauses per
      bit; any other defines the step's w difference variables (4 ternary
      clauses each), then its counter.  A window no width-bit distance
      meets (lo > min(hi, width)) contributes the empty clause, the only
      case one is ever emitted;
    - when the set has two or more output groups, the ownership table,
      position by position and code by code: the (w+1)-literal clause
      "owner[g][c], or p does not hold c" for p's group g, owner first;
    - per code, at most one owner, by a sequential chain over the groups
      in first-seen order: ``s[i]`` is "one of the first i+1 groups owns
      c", with ``s[0] = owner[0][c]``, and ``owner[i][c]`` clashes with
      ``s[i-1]``.  With two groups the chain is one binary clause per code.

    Two positions of different groups holding one code force two owners,
    which the chain refutes; any assignment that keeps distinctness
    extends with "owner[g][c] iff some member of g holds c".  So the
    formula admits exactly the assignments that meet the constraints, and
    distinctness costs 2^w * (N + 4G - 7) clauses for N positions in
    G >= 2 groups, not one per pair of positions in different groups.
    """
    width = cs.width
    n_positions = cs.n_positions
    clauses: list[list[int]] = []
    n_vars = n_positions * width

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
            ds = []
            for xi in range(k * width + 1, (k + 1) * width + 1):
                xj = xi + width
                n_vars += 1
                d = n_vars
                # d <-> (xi XOR xj)
                clauses.append([-d, xi, xj])
                clauses.append([-d, -xi, -xj])
                clauses.append([d, -xi, xj])
                clauses.append([d, xi, -xj])
                ds.append(d)
            counter_window(ds, lo, hi)

    index = {g: i for i, g in enumerate(dict.fromkeys(cs.groups))}
    n_groups = len(index)
    if n_groups > 1:
        n_codes = 1 << width
        owner_base = n_vars  # owner[g][c] is owner_base + g*n_codes + c + 1
        n_vars += n_groups * n_codes
        # signs[c][b]: -1 when bit b (most significant first) of c is set,
        # so the literals sign * x all fail exactly when p holds c
        signs = [
            [-1 if (c >> (width - 1 - b)) & 1 else 1 for b in range(width)]
            for c in range(n_codes)
        ]
        for p, g in enumerate(cs.groups):
            xs = range(p * width + 1, (p + 1) * width + 1)
            owner = owner_base + index[g] * n_codes
            for sign in signs:
                owner += 1
                clauses.append([owner, *(s * x for s, x in zip(sign, xs))])
        for c in range(n_codes):
            prefix = owner_base + c + 1  # s[0] is owner[0][c]
            for gi in range(1, n_groups):
                owner = owner_base + gi * n_codes + c + 1
                clauses.append([-owner, -prefix])
                if gi < n_groups - 1:
                    n_vars += 1
                    s = n_vars
                    # s <-> (prefix OR owner)
                    clauses.append([-prefix, s])
                    clauses.append([-owner, s])
                    clauses.append([-s, prefix, owner])
                    prefix = s

    return Cnf(
        n_vars=n_vars, clauses=clauses, width=width, n_positions=n_positions
    )


def decode_positions(cnf: Cnf, model: list[int]) -> list[int]:
    """Position register values from a solver model (model[var] in {1,-1})."""
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
