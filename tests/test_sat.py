"""Solver tests: correctness against brute force, determinism, phases,
restarts/reduction paths, timeout behavior, and the same search path as
the reference copy in ``sat_reference``."""

import itertools
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sat_reference
from conftest import synthetic_trace
from fsmrecon import sat
from fsmrecon.cnf import decode_positions, encode_cnf
from fsmrecon.constraints import build_constraints, find_violation
from fsmrecon.sat import (
    SAT,
    TIMEOUT,
    UNSAT,
    CdclSolver,
    check_model,
    luby,
    solve_cnf,
)


def brute_force_sat(n_vars, clauses):
    for bits in itertools.product((1, -1), repeat=n_vars):
        model = [0] + list(bits)
        if check_model(clauses, model):
            return True
    return False


def pigeonhole(pigeons, holes):
    """Place `pigeons` pigeons into `holes` holes, one per hole."""
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def random_3sat(rng, n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


# ------------------------------------------------------------------ basics


def test_luby_prefix():
    assert [luby(i) for i in range(15)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def test_empty_formula_is_sat():
    out = solve_cnf(3, [])
    assert out.status == SAT
    assert out.model == [0, -1, -1, -1]  # free variables default to false


def test_empty_clause_is_unsat():
    assert solve_cnf(2, [[1, 2], []]).status == UNSAT


def test_unit_chain():
    out = solve_cnf(3, [[1], [-1, 2], [-2, 3]])
    assert out.status == SAT
    assert out.model[1:] == [1, 1, 1]
    assert out.stats.decisions == 0


def test_contradicting_units_unsat():
    assert solve_cnf(1, [[1], [-1]]).status == UNSAT


def test_unsat_found_by_level_zero_propagation():
    assert solve_cnf(2, [[1, 2], [-1], [-2]]).status == UNSAT


def test_tautology_and_duplicate_literals_ignored():
    out = solve_cnf(2, [[1, -1], [2, 2]])
    assert out.status == SAT
    assert out.model[2] == 1


def test_literal_out_of_range_rejected():
    import pytest

    with pytest.raises(ValueError):
        solve_cnf(2, [[3]])


def test_negative_variable_count_is_refused():
    with pytest.raises(ValueError, match="variable count must be >= 0, got -1"):
        solve_cnf(-1, [])


def test_check_model_detects_falsified_clause():
    model = [0, 1, -1]
    assert check_model([[1, 2]], model)
    assert not check_model([[-1], [2]], model)


# ------------------------------------------------------------- correctness


def test_pigeonhole_unsat():
    n, clauses = pigeonhole(4, 3)
    out = solve_cnf(n, clauses)
    assert out.status == UNSAT
    assert out.stats.conflicts > 0


def test_pigeonhole_sat_when_enough_holes():
    n, clauses = pigeonhole(4, 4)
    out = solve_cnf(n, clauses)
    assert out.status == SAT
    assert check_model(clauses, out.model)


def test_random_instances_match_brute_force():
    rng = random.Random(90_210)
    for trial in range(40):
        n = rng.randint(5, 11)
        m = int(4.3 * n) + rng.randint(-4, 4)
        clauses = random_3sat(rng, n, m)
        expected = brute_force_sat(n, clauses)
        out = solve_cnf(n, clauses)
        assert out.status in (SAT, UNSAT)
        got = out.status == SAT
        assert got == expected, f"trial {trial}: solver={out.status}"
        if got:
            assert check_model(clauses, out.model)


def test_small_restart_interval_still_correct(monkeypatch):
    monkeypatch.setattr(sat, "_RESTART_INTERVAL", 1)
    rng = random.Random(777)
    for _ in range(10):
        n = 9
        clauses = random_3sat(rng, n, 40)
        expected = brute_force_sat(n, clauses)
        out = solve_cnf(n, clauses)
        assert (out.status == SAT) == expected
        if out.status == SAT:
            assert check_model(clauses, out.model)


def test_clause_reduction_keeps_solver_correct(monkeypatch):
    monkeypatch.setattr(sat, "_RESTART_INTERVAL", 2)
    rng = random.Random(5150)
    for _ in range(8):
        n = 10
        clauses = random_3sat(rng, n, 44)
        expected = brute_force_sat(n, clauses)
        solver = CdclSolver(n, [list(c) for c in clauses])
        solver.reduce_budget = 4  # force frequent reductions
        out = solver.solve()
        assert (out.status == SAT) == expected
        if out.status == SAT:
            assert check_model(clauses, out.model)


def test_activity_rescale_keeps_solver_correct(monkeypatch):
    # a ceiling of 2.0 is passed within the first few conflicts
    monkeypatch.setattr(sat, "_RESCALE_LIMIT", 2.0)
    rescale = CdclSolver._rescale
    calls = []

    def counted(self):
        calls.append(self)
        rescale(self)

    monkeypatch.setattr(CdclSolver, "_rescale", counted)
    rng = random.Random(5150)
    for _ in range(8):
        n = 10
        clauses = random_3sat(rng, n, 44)
        expected = brute_force_sat(n, clauses)
        out = CdclSolver(n, [list(c) for c in clauses]).solve()
        assert (out.status == SAT) == expected
        if out.status == SAT:
            assert check_model(clauses, out.model)
    n, clauses = pigeonhole(4, 3)
    assert solve_cnf(n, clauses).status == UNSAT
    assert calls


# ------------------------------------------------------------- determinism


def test_identical_runs_take_identical_paths():
    rng = random.Random(31_415)
    clauses = random_3sat(rng, 12, 52)
    a = solve_cnf(12, clauses)
    b = solve_cnf(12, clauses)
    assert a.status == b.status
    assert a.model == b.model
    assert (a.stats.decisions, a.stats.conflicts, a.stats.propagations) == (
        b.stats.decisions,
        b.stats.conflicts,
        b.stats.propagations,
    )


def test_initial_phases_steer_the_model():
    # unconstrained variables: decisions follow the seeded phases exactly
    n = 6
    clauses = []
    phases = {1: True, 2: False, 3: True, 4: True, 5: False, 6: True}
    out = solve_cnf(n, clauses, initial_phases=phases)
    assert out.status == SAT
    assert [out.model[v] > 0 for v in range(1, n + 1)] == [
        True, False, True, True, False, True,
    ]


def test_good_phases_solve_without_conflicts():
    # a satisfiable instance where the seeded phases name a model
    rng = random.Random(2718)
    n = 30
    secret = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    clauses = []
    for _ in range(120):
        vs = rng.sample(range(1, n + 1), 3)
        clause = [v if rng.random() < 0.5 else -v for v in vs]
        if not any((lit > 0) == secret[abs(lit)] for lit in clause):
            flip = clause[rng.randrange(3)]
            clause[clause.index(flip)] = -flip
        clauses.append(clause)
    out = solve_cnf(n, clauses, initial_phases=secret)
    assert out.status == SAT
    assert out.stats.conflicts == 0
    assert all((out.model[v] > 0) == secret[v] for v in range(1, n + 1))


# ------------------------------------------------------- same search path


@contextmanager
def tunables(restart_interval=None, rescale_limit=None):
    """Patch the solver's tunables in both solver modules at once."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (sat, sat_reference):
            if restart_interval is not None:
                mp.setattr(module, "_RESTART_INTERVAL", restart_interval)
            if rescale_limit is not None:
                mp.setattr(module, "_RESCALE_LIMIT", rescale_limit)
        yield


def search_path(solver_class, n_vars, clauses, phases, reduce_budget):
    """Everything a solve shows: status, model, counters, clause database."""
    solver = solver_class(n_vars, [list(c) for c in clauses], initial_phases=phases)
    if reduce_budget is not None:
        solver.reduce_budget = reduce_budget
    out = solver.solve()
    stats = out.stats
    return (
        out.status,
        out.model,
        (stats.decisions, stats.conflicts, stats.propagations, stats.restarts),
        solver.clauses,
    )


def assert_same_path(n_vars, clauses, phases=None, reduce_budget=None):
    got = search_path(CdclSolver, n_vars, clauses, phases, reduce_budget)
    want = search_path(
        sat_reference.CdclSolver, n_vars, clauses, phases, reduce_budget
    )
    assert got == want
    return got


@st.composite
def cnfs(draw):
    """A clean CNF of 1-6-literal clauses (units and binaries included),
    with optional seeded phases.  Half the draws are dense random formulas
    of 2-6-literal clauses, mostly ternary, at 4-5 clauses per variable
    (units would settle them at level 0), so that conflicts, restarts,
    reductions and rescales are reached."""
    if draw(st.booleans()):
        n_vars = draw(st.integers(1, 12))
        clause = st.lists(
            st.integers(1, n_vars), min_size=1, max_size=min(6, n_vars), unique=True
        ).flatmap(lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
        clauses = draw(st.lists(clause.map(list), max_size=60))
    else:
        n_vars = draw(st.integers(15, 30))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        lengths = (2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 5, 6)
        clauses = []
        for _ in range(rng.randint(4 * n_vars, 5 * n_vars)):
            vs = rng.sample(range(1, n_vars + 1), rng.choice(lengths))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    phases = draw(
        st.none() | st.dictionaries(st.integers(1, n_vars), st.booleans())
    )
    return n_vars, clauses, phases


@settings(max_examples=300, deadline=None)
@given(
    cnf=cnfs(),
    restart_interval=st.sampled_from([None, 1, 2, 3]),
    reduce_budget=st.sampled_from([None, 4]),
    rescale_limit=st.sampled_from([None, 2.0]),
)
def test_search_path_matches_the_reference(
    cnf, restart_interval, reduce_budget, rescale_limit
):
    n_vars, clauses, phases = cnf
    with tunables(restart_interval, rescale_limit):
        status, model, _, _ = assert_same_path(
            n_vars, clauses, phases, reduce_budget
        )
    assert status in (SAT, UNSAT)
    assert status == UNSAT or check_model(clauses, model)


@pytest.mark.parametrize(
    "restart_interval, reduce_budget, rescale_limit",
    [(None, None, None), (1, 4, 2.0), (2, 4, None), (3, None, 2.0)],
)
def test_pigeonhole_search_path_matches_the_reference(
    restart_interval, reduce_budget, rescale_limit
):
    n, clauses = pigeonhole(5, 4)
    with tunables(restart_interval, rescale_limit):
        status, _, (_, conflicts, _, restarts), _ = assert_same_path(
            n, clauses, reduce_budget=reduce_budget
        )
    assert status == UNSAT
    assert conflicts > 0
    assert restarts > 0 or restart_interval is None


def test_decide_picks_the_most_active_free_variable(monkeypatch):
    # checked before every decision, by brute force over all variables:
    # value holds each variable and its negation as mirror images, the
    # trail lists exactly the true literals, no variable has two order
    # entries at its current activity, each free one has exactly one, and
    # the pick is the free variable of highest activity, lowest index on ties
    monkeypatch.setattr(sat, "_RESTART_INTERVAL", 1)
    monkeypatch.setattr(sat, "_RESCALE_LIMIT", 2.0)
    decide, rescale, reduce_db = (
        CdclSolver._decide, CdclSolver._rescale, CdclSolver._reduce_db
    )
    seen = {"decisions": 0, "rescales": 0, "reductions": 0}

    def checked_decide(self):
        nv = self.n_vars
        free = []
        true_lits = set()
        for v in range(1, nv + 1):
            val = self.value[nv + v]
            assert val in (-1, 0, 1) and self.value[nv - v] == -val
            if val:
                true_lits.add(v * val)
            entries = self.order.count((-self.activity[v], v))
            assert entries <= 1
            if val == 0:
                assert entries == 1 and self.queued[v] == self.activity[v]
                free.append(v)
        assert sorted(self.trail) == sorted(true_lits)
        lit = decide(self)
        if free:
            best = max(free, key=lambda v: (self.activity[v], -v))
            assert lit == (best if self.phase[best] else -best)
            seen["decisions"] += 1
        else:
            assert lit == 0
        return lit

    def counted_rescale(self):
        seen["rescales"] += 1
        rescale(self)

    def counted_reduce_db(self):
        before = len(self.clauses)
        reduce_db(self)
        seen["reductions"] += len(self.clauses) < before

    monkeypatch.setattr(CdclSolver, "_decide", checked_decide)
    monkeypatch.setattr(CdclSolver, "_rescale", counted_rescale)
    monkeypatch.setattr(CdclSolver, "_reduce_db", counted_reduce_db)
    # 25 variables at the hard ratio: each rescale finds free variables
    # with nonzero activity, whose one live entry it must re-queue
    rng = random.Random(5150)
    restarts = 0
    for _ in range(6):
        n = 25
        clauses = random_3sat(rng, n, 107)
        solver = CdclSolver(n, [list(c) for c in clauses])
        solver.reduce_budget = 4
        out = solver.solve()
        assert out.status == UNSAT or check_model(clauses, out.model)
        restarts += out.stats.restarts
    n, clauses = pigeonhole(5, 4)
    solver = CdclSolver(n, clauses)
    solver.reduce_budget = 4
    assert solver.solve().status == UNSAT
    assert restarts > 0
    assert min(seen.values()) > 0, seen


# ----------------------------------------------------------------- timeout


def test_timeout_reports_timeout():
    n, clauses = pigeonhole(9, 8)
    out = solve_cnf(n, clauses, timeout_s=0.05)
    assert out.status == TIMEOUT
    assert out.model is None
    assert out.stats.elapsed_s >= 0.05


def test_deadline_is_checked_at_decisions_restarts_and_conflicts(monkeypatch):
    # a spent deadline is seen at the first check on each path: every
    # 4,096 decisions, at a restart, and every 256 conflicts
    out = CdclSolver(5000, [], timeout_s=0.0).solve()
    assert out.status == TIMEOUT
    assert (out.stats.decisions, out.stats.conflicts) == (4096, 0)
    n, clauses = pigeonhole(8, 7)
    out = solve_cnf(n, clauses, timeout_s=0.0)
    assert out.status == TIMEOUT
    assert (out.stats.restarts, out.stats.conflicts) == (1, 101)
    monkeypatch.setattr(sat, "_RESTART_INTERVAL", 10**9)
    out = solve_cnf(n, clauses, timeout_s=0.0)
    assert out.status == TIMEOUT
    assert (out.stats.restarts, out.stats.conflicts) == (0, 256)


def test_phase_for_an_unknown_variable_is_refused():
    for v in (0, 3):
        with pytest.raises(ValueError, match="unknown variable"):
            CdclSolver(2, [[1, 2]], initial_phases={v: True})


# -------------------------------------------------------------- integration


def test_solved_trace_constraints_decode_to_valid_values():
    trace = synthetic_trace(
        ["00", "01", "01", "10", "00"], [1, 0, 2, 1], input_bits=2
    )
    cs = build_constraints(trace, width=2)
    cnf = encode_cnf(cs)
    out = solve_cnf(cnf.n_vars, cnf.clauses)
    assert out.status == SAT
    values = decode_positions(cnf, out.model)
    assert find_violation(cs, values) is None


def test_too_narrow_width_is_unsat():
    # five pairwise-distinct outputs cannot fit in 2 codes
    trace = synthetic_trace(
        ["00", "01", "10", "11", "00"], [1, 1, 1, 2], input_bits=2
    )
    # make all five positions pairwise distinct via distinct outputs on 4,
    # then force width 1: 5 distinct codes cannot exist in {0,1}
    cs = build_constraints(trace, width=1)
    assert solve_cnf(*_as_pair(cs)).status == UNSAT


def _as_pair(cs):
    cnf = encode_cnf(cs)
    return cnf.n_vars, cnf.clauses
