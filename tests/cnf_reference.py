"""Verbatim copies of two earlier ``fsmrecon.cnf.encode_cnf`` versions.

- ``pair_expansion``, from before the code-ownership table: distinctness
  is one at-least-one clause over difference variables for every pair of
  positions in different output groups, O(N^2) clauses in the number of
  positions N.
- ``ownership_rows``, the first code-ownership table: every position and
  code has a variable ``e[p][c]`` defined both ways from the position
  bits, and every owner needs a member holding its code, so each
  auxiliary is a function of the position bits.

``test_cnf.py`` encodes the same constraint sets with these and with the
current encoder and requires the same satisfiability, the same admitted
position assignments, and a model of the current formula that the
independent checker accepts.
"""

from __future__ import annotations

from fsmrecon.cnf import Cnf
from fsmrecon.constraints import ConstraintSet


def pair_expansion(cs: ConstraintSet) -> Cnf:
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


def ownership_rows(cs: ConstraintSet) -> Cnf:
    """Encode a constraint set.

    Variables 1 .. n_positions*width are the position bits, most significant
    bit first within each position; auxiliary variables follow, each one
    functionally determined by the position bits.  Clauses come in a fixed
    order:

    - the windows, in step order: a zero window is 2 binary clauses per
      bit; any other defines the step's w difference variables (4 ternary
      clauses each), then its counter.  A window no width-bit distance
      meets (lo > min(hi, width)) contributes the empty clause, the only
      case one is ever emitted;
    - when the set has two or more output groups, the ownership table,
      position by position and code by code: ``e[p][c]`` ("position p
      holds code c") by w binary clauses and one (w+1)-literal clause,
      then the binary clause "e[p][c] implies owner[g][c]" for p's group g;
    - per group and code, the long clause "owner[g][c] implies some member
      holds c";
    - per code, at most one owner, by a sequential chain over the groups
      in first-seen order: ``s[i]`` is "one of the first i+1 groups owns
      c", with ``s[0] = owner[0][c]``, and ``owner[i][c]`` clashes with
      ``s[i-1]``.  With two groups the chain is one binary clause per code.

    So distinctness costs 2^w * (N*(w+2) + 5G - 7) clauses for N positions
    in G >= 2 groups, not one per pair of positions in different groups.
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
        e_base = n_vars  # e[p][c] is e_base + p*n_codes + c + 1
        owner_base = e_base + n_positions * n_codes  # likewise owner[g][c]
        n_vars = owner_base + n_groups * n_codes
        # signs[c][b]: +1 when bit b (most significant first) of c is set
        signs = [
            [1 if (c >> (width - 1 - b)) & 1 else -1 for b in range(width)]
            for c in range(n_codes)
        ]
        members: list[list[int]] = [[] for _ in range(n_groups)]
        for p, g in enumerate(cs.groups):
            gi = index[g]
            members[gi].append(p)
            xs = range(p * width + 1, (p + 1) * width + 1)
            e = e_base + p * n_codes
            owner = owner_base + gi * n_codes
            for c, sign in enumerate(signs):
                e += 1
                owner += 1
                lits = [s * x for s, x in zip(sign, xs)]
                for lit in lits:
                    clauses.append([-e, lit])
                clauses.append([e, *[-lit for lit in lits]])
                clauses.append([-e, owner])
        for gi, ps in enumerate(members):
            for c in range(n_codes):
                owner = owner_base + gi * n_codes + c + 1
                clauses.append(
                    [-owner, *[e_base + p * n_codes + c + 1 for p in ps]]
                )
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
