"""Conflict-driven clause-learning satisfiability solver.

Self-contained and deterministic: two-literal watching, first-UIP conflict
analysis, activity-ordered decisions with ties broken by variable index,
saved phases (seedable via ``initial_phases``), Luby-scheduled restarts,
and bounded learned-clause retention.  Given the same formula and options
the solver always takes the same path.

The propagation loop follows MiniSat (Een and Sorensson, SAT 2003),
written for CPython: one literal-indexed value table holds the
assignment, watch lists and reasons hold the clause lists themselves,
three-literal clauses take a direct path, and each unassigned variable
has one live heap entry.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

SAT = "sat"
UNSAT = "unsat"
TIMEOUT = "timeout"

_RESCALE_LIMIT = 1e100
_VAR_DECAY = 0.95  # activity decay per conflict
_RESTART_INTERVAL = 100  # conflicts per Luby unit between restarts


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    elapsed_s: float = 0.0


@dataclass
class SolveOutcome:
    status: str
    model: list[int] | None  # index by variable, entries +1 / -1
    stats: SolverStats


def luby(i: int) -> int:
    """i-th element (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = (i + 1).bit_length()
        if (i + 1) == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class CdclSolver:
    """Solver over clean clauses: literals in range, no tautologies, no
    repeated literals (see :func:`solve_cnf` for raw input).  The solver
    takes ownership of the clause lists and reorders their literals.
    The decision level is ``len(trail_lim)``.  Watch lists and ``reason``
    hold clause lists, not indices; a decision or level-0 fact has reason
    None.

    One table holds the assignment: ``value[lit + n_vars]`` is +1, -1 or 0
    as ``lit`` is true, false or unassigned, so a variable ``v`` reads
    ``value[n_vars + v]`` and its negation the mirror slot.  Beside it the
    decision heap keeps one invariant: each unassigned variable has exactly
    one live ``order`` entry, at its current activity, and ``queued[var]``
    is the activity of the variable's live entry (-1.0 when it has none).
    Any other entry is stale and skipped when popped.  A bump only ever
    touches an assigned variable, whose new activity is queued when it is
    unassigned.
    """

    def __init__(
        self,
        n_vars: int,
        clauses: list[list[int]],
        *,
        initial_phases: dict[int, bool] | None = None,
        timeout_s: float | None = None,
    ):
        self.n_vars = n_vars
        self.timeout_s = timeout_s
        self.stats = SolverStats()

        self.value = [0] * (2 * n_vars + 1)
        self.level = [0] * (n_vars + 1)
        self.reason: list[list[int] | None] = [None] * (n_vars + 1)
        self.phase = [0] * (n_vars + 1)
        if initial_phases:
            for v, val in initial_phases.items():
                if not 1 <= v <= n_vars:
                    raise ValueError(f"phase for unknown variable {v}")
                self.phase[v] = 1 if val else 0
        self.activity = [0.0] * (n_vars + 1)
        self.act_inc = 1.0
        self.seen = bytearray(n_vars + 1)

        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.unsat_at_load = False

        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n_vars + 1)]
        self.reduce_budget = 20_000

        # every variable starts with one live entry, at activity 0
        self.order: list[tuple[float, int]] = [(0.0, v) for v in range(1, n_vars + 1)]
        self.queued = [0.0] * (n_vars + 1)

        # load: a unit is a level-0 fact, a longer clause watches its first
        # two literals; the empty clause or a contradicting unit ends loading
        self.clauses: list[list[int]] = []
        watches = self.watches
        for lits in clauses:
            if len(lits) > 1:
                self.clauses.append(lits)
                watches[lits[0] + n_vars].append(lits)
                watches[lits[1] + n_vars].append(lits)
            elif not lits or not self._enqueue(lits[0], None):
                self.unsat_at_load = True
                break
        self.first_learned = len(self.clauses)  # earlier clauses are core

    # ------------------------------------------------------------ assigning

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        value = self.value
        nv = self.n_vars
        if value[nv + lit] != 0:
            return value[nv + lit] == 1
        value[nv + lit] = 1
        value[nv - lit] = -1
        var = lit if lit > 0 else -lit
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        heappush = heapq.heappush
        order = self.order
        queued = self.queued
        activity = self.activity
        value = self.value
        phase = self.phase
        nv = self.n_vars
        bound = self.trail_lim[target]
        undone = self.trail[bound:]
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = bound
        for lit in undone:
            value[nv + lit] = value[nv - lit] = 0
            var = lit if lit > 0 else -lit
            phase[var] = 1 if lit > 0 else 0
            act = activity[var]
            if queued[var] != act:
                queued[var] = act
                heappush(order, (-act, var))

    # ----------------------------------------------------------- propagate

    def _propagate(self) -> list[int] | None:
        """Exhaust the implication queue; the conflict clause or None."""
        watches = self.watches
        value = self.value
        trail = self.trail
        level = self.level
        reason = self.reason
        nv = self.n_vars
        dl = len(self.trail_lim)
        props = 0
        qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            falsified = -lit
            widx = falsified + nv
            watchlist = watches[widx]
            if not watchlist:
                continue
            new_list: list[list[int]] = []
            keep = new_list.append
            it = iter(watchlist)
            for clause in it:
                first = clause[0]
                if first == falsified:  # keep the false watch at clause[1]
                    first = clause[1]
                    clause[0] = first
                    clause[1] = falsified
                v0 = value[first + nv]
                if v0 == 1:
                    keep(clause)
                    continue
                # look for a new literal to watch in place of clause[1]
                if len(clause) == 3:
                    lk = clause[2]
                    if value[lk + nv] != -1:
                        clause[1] = lk
                        clause[2] = falsified
                        watches[lk + nv].append(clause)
                        continue
                elif len(clause) > 3:
                    for k in range(2, len(clause)):
                        lk = clause[k]
                        if value[lk + nv] != -1:
                            clause[1] = lk
                            clause[k] = falsified
                            watches[lk + nv].append(clause)
                            break
                    else:
                        k = 0  # every other literal is false
                    if k:
                        continue
                keep(clause)
                if v0 == -1:
                    new_list.extend(it)
                    conflict = clause
                    break
                # unit: first becomes true at the current level
                value[first + nv] = 1
                value[nv - first] = -1
                var = first if first > 0 else -first
                level[var] = dl
                reason[var] = clause
                trail.append(first)
            watches[widx] = new_list
            if conflict is not None:
                qhead = len(trail)
                break
        self.qhead = qhead
        self.stats.propagations += props
        return conflict

    # ------------------------------------------------------------- analyze

    def _bump(self, var: int) -> None:
        self.activity[var] += self.act_inc
        if self.activity[var] > _RESCALE_LIMIT:
            self._rescale()

    def _rescale(self) -> None:
        scale = 1e-100
        activity = self.activity
        for v in range(1, self.n_vars + 1):
            activity[v] *= scale
        self.act_inc *= scale
        value = self.value
        nv = self.n_vars
        queued = self.queued
        self.order = []
        for v in range(1, nv + 1):
            if value[nv + v] == 0:
                queued[v] = activity[v]
                self.order.append((-activity[v], v))
            else:
                queued[v] = -1.0
        heapq.heapify(self.order)

    def _analyze(self, clause: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause (asserting literal first) and backjump level."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        cur = len(self.trail_lim)
        learnt: list[int] = []
        touched: list[int] = []
        counter = 0
        p = 0
        idx = len(trail) - 1
        btlevel = 0
        while True:
            start = 1 if p else 0  # clause[0] is the resolved literal
            for k in range(start, len(clause)):
                q = clause[k]
                v = q if q > 0 else -q
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    touched.append(v)
                    self._bump(v)
                    if level[v] == cur:
                        counter += 1
                    else:
                        learnt.append(q)
                        if level[v] > btlevel:
                            btlevel = level[v]
            while True:
                p = trail[idx]
                idx -= 1
                v = p if p > 0 else -p
                if seen[v]:
                    break
            counter -= 1
            if counter == 0:
                break
            clause = reason[v]
        learnt.insert(0, -p)
        for v in touched:
            seen[v] = 0
        return learnt, btlevel

    def _record(self, learnt: list[int]) -> None:
        reason = None  # a learned unit is a level-0 fact, kept as no clause
        if len(learnt) > 1:
            # position 1 must hold a literal from the backjump level
            best = 1
            best_level = self.level[abs(learnt[1])]
            for k in range(2, len(learnt)):
                lv = self.level[abs(learnt[k])]
                if lv > best_level:
                    best_level = lv
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            reason = learnt
            self.clauses.append(learnt)
            nv = self.n_vars
            self.watches[learnt[0] + nv].append(learnt)
            self.watches[learnt[1] + nv].append(learnt)
        ok = self._enqueue(learnt[0], reason)
        assert ok, "asserting literal must be enqueueable after backjump"

    # ------------------------------------------------------------ decisions

    def _decide(self) -> int:
        """The unassigned variable of highest activity, lowest index on
        ties, signed by its saved phase; 0 when every variable is set."""
        heappop = heapq.heappop
        order = self.order
        queued = self.queued
        value = self.value
        nv = self.n_vars
        while order:
            neg_act, var = heappop(order)
            if queued[var] == -neg_act:  # the live entry
                queued[var] = -1.0
                if value[nv + var] == 0:
                    return var if self.phase[var] else -var
        return 0

    # -------------------------------------------------------------- reduce

    def _reduce_db(self) -> None:
        """At level 0: drop long learned clauses once the budget is exceeded."""
        learned_count = len(self.clauses) - self.first_learned
        if learned_count <= self.reduce_budget:
            return
        for lit in self.trail:  # level-0 facts are permanent
            self.reason[abs(lit)] = None
        learned = sorted(self.clauses[self.first_learned:], key=len)
        half = len(learned) // 2
        self.clauses[self.first_learned:] = learned[:half] + [
            c for c in learned[half:] if len(c) <= 3
        ]
        self.reduce_budget = int(self.reduce_budget * 1.3)
        self._rebuild_watches()

    def _rebuild_watches(self) -> None:
        nv = self.n_vars
        value = self.value
        self.watches = [[] for _ in range(2 * nv + 1)]
        watches = self.watches
        for clause in self.clauses:
            # move two non-false literals (w.r.t. level-0 facts) to the front
            slot = 0
            for k in range(len(clause)):
                if value[clause[k] + nv] != -1:
                    clause[slot], clause[k] = clause[k], clause[slot]
                    slot += 1
                    if slot == 2:
                        break
            watches[clause[0] + nv].append(clause)
            watches[clause[1] + nv].append(clause)

    # ----------------------------------------------------------------- run

    def solve(self) -> SolveOutcome:
        start = time.monotonic()
        stats = self.stats

        def finish(status: str, model: list[int] | None) -> SolveOutcome:
            stats.elapsed_s = time.monotonic() - start
            return SolveOutcome(status=status, model=model, stats=stats)

        if self.unsat_at_load:
            return finish(UNSAT, None)

        deadline = None if self.timeout_s is None else start + self.timeout_s
        restart_no = 0
        limit = _RESTART_INTERVAL * luby(0)
        since_restart = 0
        decay_mult = 1.0 / _VAR_DECAY

        while True:
            confl = self._propagate()
            if confl is not None:
                stats.conflicts += 1
                since_restart += 1
                if not self.trail_lim:
                    return finish(UNSAT, None)
                learnt, btlevel = self._analyze(confl)
                self._backtrack(btlevel)
                self._record(learnt)
                self.act_inc *= decay_mult
                if self.act_inc > _RESCALE_LIMIT:
                    self._rescale()
                if (
                    deadline is not None
                    and stats.conflicts % 256 == 0
                    and time.monotonic() > deadline
                ):
                    return finish(TIMEOUT, None)
                continue
            if since_restart >= limit:
                restart_no += 1
                stats.restarts += 1
                since_restart = 0
                limit = _RESTART_INTERVAL * luby(restart_no)
                self._backtrack(0)
                self._reduce_db()
                if deadline is not None and time.monotonic() > deadline:
                    return finish(TIMEOUT, None)
                continue
            lit = self._decide()
            if lit == 0:
                # every variable is set, and slot 0 (literal 0) never is
                return finish(SAT, self.value[self.n_vars :])
            stats.decisions += 1
            if (
                deadline is not None
                and stats.decisions % 4096 == 0
                and time.monotonic() > deadline
            ):
                return finish(TIMEOUT, None)
            self.trail_lim.append(len(self.trail))
            ok = self._enqueue(lit, None)
            assert ok


def solve_cnf(
    n_vars: int,
    clauses: list[list[int]],
    *,
    initial_phases: dict[int, bool] | None = None,
    timeout_s: float | None = None,
) -> SolveOutcome:
    """Solve a CNF given as (variable count, clause list of non-zero ints).

    The entry point for hand-written and DIMACS clauses: literals are
    range-checked, tautologies dropped and repeated literals removed before
    the solver sees them; the caller's lists are left untouched.
    """
    if n_vars < 0:
        raise ValueError(f"variable count must be >= 0, got {n_vars}")
    clean: list[list[int]] = []
    for clause in clauses:
        lits = dict.fromkeys(clause)  # first occurrences, in order
        for lit in lits:
            if not 1 <= abs(lit) <= n_vars:
                raise ValueError(f"literal {lit} out of range")
        if not any(-lit in lits for lit in lits):
            clean.append(list(lits))
    solver = CdclSolver(
        n_vars, clean, initial_phases=initial_phases, timeout_s=timeout_s
    )
    return solver.solve()


def check_model(clauses: list[list[int]], model: list[int]) -> bool:
    """True when every clause has a literal made true by the model."""
    for clause in clauses:
        for lit in clause:
            val = model[lit] if lit > 0 else -model[-lit]
            if val > 0:
                break
        else:
            return False
    return True
