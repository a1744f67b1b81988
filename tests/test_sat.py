"""Solver tests: correctness against brute force, determinism, phases,
restarts/reduction paths, and timeout behavior."""

import itertools
import random

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


# ----------------------------------------------------------------- timeout


def test_timeout_reports_timeout():
    n, clauses = pigeonhole(9, 8)
    out = solve_cnf(n, clauses, timeout_s=0.05)
    assert out.status == TIMEOUT
    assert out.model is None
    assert out.stats.elapsed_s >= 0.05


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
