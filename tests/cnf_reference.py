"""A verbatim copy of ``fsmrecon.cnf.encode_cnf`` before its
code-ownership table: distinctness expanded into one at-least-one clause
over difference variables for every pair of positions in different
output groups, O(N^2) clauses in the number of positions N.

``test_cnf.py`` encodes the same constraint sets with both and requires
the same satisfiability, and a model of the current formula that the
independent checker accepts.
"""

from __future__ import annotations

from fsmrecon.cnf import Cnf
from fsmrecon.constraints import ConstraintSet


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
