"""A verbatim copy of ``fsmrecon.sat.CdclSolver`` before its value table,
its watch lists of clauses rather than indices, its three-literal watch
path and its one live heap entry per variable.

``test_sat.py`` runs it beside the current solver and requires the same
path: status, model, counters and clause database.  Its tunables are
this module's own copies, so a test that patches one in ``fsmrecon.sat``
must patch it here too.
"""

from __future__ import annotations

import heapq
import time

from fsmrecon.sat import SAT, TIMEOUT, UNSAT, SolveOutcome, SolverStats, luby

_RESCALE_LIMIT = 1e100
_VAR_DECAY = 0.95  # activity decay per conflict
_RESTART_INTERVAL = 100  # conflicts per Luby unit between restarts


class CdclSolver:
    """Solver over clean clauses: literals in range, no tautologies, no
    repeated literals (see :func:`solve_cnf` for raw input).  The solver
    takes ownership of the clause lists and reorders their literals.
    The decision level is ``len(trail_lim)``.  A bump only ever touches an
    assigned variable, which re-enters the ``order`` heap on backtracking.
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

        self.assigns = [0] * (n_vars + 1)
        self.level = [0] * (n_vars + 1)
        self.reason = [-1] * (n_vars + 1)
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

        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * n_vars + 1)]
        self.first_learned = 0  # set after loading; earlier clauses are core
        self.reduce_budget = 20_000

        self.order: list[tuple[float, int]] = [(0.0, v) for v in range(1, n_vars + 1)]
        heapq.heapify(self.order)

        for clause in clauses:
            if not self._load_clause(clause):
                self.unsat_at_load = True
                break
        self.first_learned = len(self.clauses)

    # ------------------------------------------------------------- loading

    def _load_clause(self, lits: list[int]) -> bool:
        """Add an input clause; False when it makes the formula unsatisfiable."""
        if not lits:
            return False
        if len(lits) == 1:
            return self._enqueue(lits[0], -1)
        ci = len(self.clauses)
        self.clauses.append(lits)
        nv = self.n_vars
        self.watches[lits[0] + nv].append(ci)
        self.watches[lits[1] + nv].append(ci)
        return True

    # ------------------------------------------------------------ assigning

    def _enqueue(self, lit: int, reason: int) -> bool:
        var = lit if lit > 0 else -lit
        val = 1 if lit > 0 else -1
        cur = self.assigns[var]
        if cur != 0:
            return cur == val
        self.assigns[var] = val
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        heappush = heapq.heappush
        order = self.order
        activity = self.activity
        assigns = self.assigns
        phase = self.phase
        bound = self.trail_lim[target]
        for k in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[k]
            var = lit if lit > 0 else -lit
            phase[var] = 1 if assigns[var] > 0 else 0
            assigns[var] = 0
            heappush(order, (-activity[var], var))
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # ----------------------------------------------------------- propagate

    def _propagate(self) -> int:
        """Exhaust the implication queue; conflict clause index or -1."""
        watches = self.watches
        clauses = self.clauses
        assigns = self.assigns
        trail = self.trail
        level = self.level
        reason = self.reason
        nv = self.n_vars
        dl = len(self.trail_lim)
        props = 0
        qhead = self.qhead
        conflict = -1
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            falsified = -lit
            widx = falsified + nv
            watchlist = watches[widx]
            if not watchlist:
                continue
            new_list: list[int] = []
            i = 0
            n_w = len(watchlist)
            while i < n_w:
                ci = watchlist[i]
                i += 1
                clause = clauses[ci]
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                v0 = assigns[first] if first > 0 else -assigns[-first]
                if v0 == 1:
                    new_list.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    lk = clause[k]
                    vk = assigns[lk] if lk > 0 else -assigns[-lk]
                    if vk != -1:
                        clause[1] = lk
                        clause[k] = falsified
                        watches[lk + nv].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                new_list.append(ci)
                if v0 == -1:
                    new_list.extend(watchlist[i:])
                    conflict = ci
                    break
                var = first if first > 0 else -first
                assigns[var] = 1 if first > 0 else -1
                level[var] = dl
                reason[var] = ci
                trail.append(first)
            watches[widx] = new_list
            if conflict >= 0:
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
        self.order = [(-activity[v], v) for v in range(1, self.n_vars + 1)
                      if self.assigns[v] == 0]
        heapq.heapify(self.order)

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learned clause (asserting literal first) and backjump level."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        clauses = self.clauses
        cur = len(self.trail_lim)
        learnt: list[int] = []
        touched: list[int] = []
        counter = 0
        p = 0
        idx = len(trail) - 1
        btlevel = 0
        while True:
            clause = clauses[confl]
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
            confl = reason[v]
        learnt.insert(0, -p)
        for v in touched:
            seen[v] = 0
        return learnt, btlevel

    def _record(self, learnt: list[int]) -> None:
        ci = -1  # a learned unit is a level-0 fact, kept as no clause
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
            ci = len(self.clauses)
            self.clauses.append(learnt)
            nv = self.n_vars
            self.watches[learnt[0] + nv].append(ci)
            self.watches[learnt[1] + nv].append(ci)
        ok = self._enqueue(learnt[0], ci)
        assert ok, "asserting literal must be enqueueable after backjump"

    # ------------------------------------------------------------ decisions

    def _decide(self) -> int:
        heappop = heapq.heappop
        order = self.order
        assigns = self.assigns
        activity = self.activity
        while order:
            neg_act, var = heappop(order)
            if assigns[var] == 0 and -neg_act == activity[var]:
                return var if self.phase[var] else -var
        return 0

    # -------------------------------------------------------------- reduce

    def _reduce_db(self) -> None:
        """At level 0: drop long learned clauses once the budget is exceeded."""
        learned_count = len(self.clauses) - self.first_learned
        if learned_count <= self.reduce_budget:
            return
        for lit in self.trail:  # level-0 facts are permanent
            self.reason[abs(lit)] = -1
        learned = sorted(self.clauses[self.first_learned:], key=len)
        half = len(learned) // 2
        self.clauses[self.first_learned:] = learned[:half] + [
            c for c in learned[half:] if len(c) <= 3
        ]
        self.reduce_budget = int(self.reduce_budget * 1.3)
        self._rebuild_watches()

    def _rebuild_watches(self) -> None:
        nv = self.n_vars
        assigns = self.assigns
        self.watches = [[] for _ in range(2 * nv + 1)]
        watches = self.watches
        for ci, clause in enumerate(self.clauses):
            # move two non-false literals (w.r.t. level-0 facts) to the front
            slot = 0
            for k in range(len(clause)):
                lk = clause[k]
                vk = assigns[lk] if lk > 0 else -assigns[-lk]
                if vk != -1:
                    clause[slot], clause[k] = clause[k], clause[slot]
                    slot += 1
                    if slot == 2:
                        break
            watches[clause[0] + nv].append(ci)
            watches[clause[1] + nv].append(ci)

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
            if confl >= 0:
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
                model = [v if v != 0 else -1 for v in self.assigns]
                model[0] = 0  # slot 0 is unused
                return finish(SAT, model)
            stats.decisions += 1
            if (
                deadline is not None
                and stats.decisions % 4096 == 0
                and time.monotonic() > deadline
            ):
                return finish(TIMEOUT, None)
            self.trail_lim.append(len(self.trail))
            ok = self._enqueue(lit, -1)
            assert ok
