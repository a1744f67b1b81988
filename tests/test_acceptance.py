"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single ``[criterion N] PASS`` line with the measured
numbers once its assertions hold, so a verbose run reads as a checklist.
"""

import json
import random
import time

import pytest

from conftest import encoded_fixture, synthetic_trace
from fsmrecon import benchmarks
from fsmrecon.attack import AttackConfig, attack, build_device
from fsmrecon.cli import main
from fsmrecon.cnf import decode_positions, encode_cnf, parse_dimacs, to_dimacs
from fsmrecon.constraints import ConstraintSet, build_constraints, evaluate
from fsmrecon.recovery import recover_encodings
from fsmrecon.sat import solve_cnf
from fsmrecon.verify import brute_force_min_width


def _attack_cli(tmp_path, target_name, *flags):
    target = tmp_path / f"{target_name}.kiss2"
    target.write_text(benchmarks.load(target_name))
    report = tmp_path / f"{target_name}_report.json"
    recovered = tmp_path / f"{target_name}_recovered.kiss2"
    code = main([
        "attack", "--target", str(target),
        "--report", str(report), "--recovered", str(recovered), *flags,
    ])
    with open(report) as fh:
        return code, json.load(fh), str(target), str(recovered)


# -------------------------------------------------------------- criterion 1


def test_criterion_1_exact_channel_full_recovery(tmp_path):
    details = []
    for name in ("lion", "train4", "dk27"):
        t0 = time.perf_counter()
        code, rep, target, recovered = _attack_cli(
            tmp_path, name,
            "--noise", "exact", "--goal", "1.0", "--seed", "1",
            "--rounds-max", "10",
        )
        elapsed = time.perf_counter() - t0
        assert code == 0, f"{name}: attack exited {code}"
        assert rep["result"]["fraction"] == 1.0, f"{name}: not fully recovered"
        assert rep["result"]["rounds_executed"] <= 10
        assert elapsed < 60.0, f"{name}: took {elapsed:.1f}s"
        assert main(["verify", recovered, target]) == 0, (
            f"{name}: recovered machine is not fully equivalent"
        )
        details.append(
            f"{name} {rep['result']['rounds_executed']}r {elapsed:.1f}s"
        )
    print(f"[criterion 1] PASS — 100% + full equivalence: {', '.join(details)}")


# -------------------------------------------------------------- criterion 2


def test_criterion_2_noisy_channel_recovery(tmp_path):
    details = []
    for name, vectors in (("opus", "200"), ("s386", "420")):
        t0 = time.perf_counter()
        code, rep, target, recovered = _attack_cli(
            tmp_path, name,
            "--noise", "table3", "--goal", "0.9", "--seed", "11",
            "--vectors", vectors, "--rounds-max", "30",
        )
        elapsed = time.perf_counter() - t0
        assert code == 0, f"{name}: attack exited {code}"
        assert rep["result"]["fraction"] >= 0.9, (
            f"{name}: fraction {rep['result']['fraction']:.3f}"
        )
        assert elapsed < 1800.0, f"{name}: {elapsed:.0f}s over the hard cap"
        target_met = "<11min" if elapsed < 660.0 else ">=11min(within cap)"
        details.append(
            f"{name} {rep['result']['fraction']:.3f} in "
            f"{rep['result']['rounds_executed']}r/{elapsed:.0f}s {target_met}"
        )
    print(f"[criterion 2] PASS — table3 ≥90%: {', '.join(details)}")


# -------------------------------------------------------------- criterion 3


def test_criterion_3_channel_fidelity(tmp_path, capsys):
    assert main([
        "calibrate", "--samples", "8000", "--noise", "table3", "--seed", "5",
    ]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["nonzero_samples"] >= 5000
    hist = rep["error_histogram_pct"]
    assert abs(hist["exact"] - 85.2) <= 3.0
    assert abs(hist["plus_one"] - 12.0) <= 3.0
    assert abs(hist["minus_one"] - 2.8) <= 3.0
    assert hist["other"] == 0.0
    assert rep["hd0_samples"] > 0
    assert rep["hd0_exact"] == rep["hd0_samples"]
    print(
        f"[criterion 3] PASS — histogram "
        f"({hist['exact']:.1f}/{hist['plus_one']:.1f}/{hist['minus_one']:.1f})% "
        f"vs (85.2/12.0/2.8)% over {rep['nonzero_samples']} samples; "
        f"HD-0 exact {rep['hd0_exact']}/{rep['hd0_samples']}"
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_4_correlation_calibration(capsys):
    assert main([
        "calibrate", "--samples", "1000", "--sigma", "10", "--seed", "5",
    ]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pearson_r"] >= 0.93
    print(
        f"[criterion 4] PASS — Pearson r {rep['pearson_r']:.4f} >= 0.93 "
        f"(1000 samples, gaussian sigma 10)"
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_solver_minimality_oracle():
    rng = random.Random(4242)
    cap = 4
    checked = 0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 3000, "instance generator starved"
        n_steps = rng.randint(1, 4)
        out_bits = rng.choice([1, 2])
        alphabet = [format(i, f"0{out_bits}b") for i in range(1 << out_bits)]
        outputs = [rng.choice(alphabet) for _ in range(n_steps + 1)]
        centers = [
            0
            if outputs[k] == outputs[k + 1] and rng.random() < 0.4
            else rng.randint(1, 3)
            for k in range(n_steps)
        ]
        trace = synthetic_trace(outputs, centers, seed=attempts)
        w_star = brute_force_min_width(build_constraints(trace, cap), cap)
        if w_star is None or w_star > 3:
            continue
        result = recover_encodings(trace)
        assert result.assignment is not None, (
            f"instance {attempts}: solver failed"
        )
        assert result.assignment.width == w_star, (
            f"instance {attempts}: solver width {result.assignment.width} "
            f"!= enumerated minimum {w_star}"
        )
        probe = build_constraints(trace, w_star)
        assert evaluate(probe, list(result.assignment.values)), (
            f"instance {attempts}: model fails the direct evaluator"
        )
        checked += 1
    print(
        f"[criterion 5] PASS — solver width == enumerated minimum on "
        f"{checked}/200 random instances (N+1<=5, width<=3); "
        f"all models pass the evaluator"
    )


# -------------------------------------------------------------- criterion 6


def _brute_sat(cs):
    """Backtracking satisfiability over all width-R position values.

    Each depth checks the prefix: its windows and distinctness over its
    output groups.
    """
    if cs.trivially_unsat:
        return False
    n = cs.n_positions
    values = [0] * n

    def ok_at(depth):
        probe = ConstraintSet(
            width=cs.width,
            windows=cs.windows[:depth],
            groups=cs.groups[: depth + 1],
        )
        return evaluate(probe, values[: depth + 1])

    def walk(depth):
        if depth == n:
            return True
        for v in range(1 << cs.width):
            values[depth] = v
            if ok_at(depth) and walk(depth + 1):
                return True
        return False

    return walk(0)


def test_criterion_6_cnf_encoding_equivalence():
    instances = 0
    satisfiable = 0
    for n_steps in (1, 2, 3):
        patterns = [
            [format((mask >> k) & 1, "b") for k in range(n_steps + 1)]
            for mask in range(1 << (n_steps + 1))
        ]
        center_space = [[]]
        for _ in range(n_steps):
            center_space = [c + [v] for c in center_space for v in range(4)]
        for outputs in patterns:
            for centers in center_space:
                trace = synthetic_trace(outputs, centers, seed=1)
                for width in (1, 2, 3):
                    cs = build_constraints(trace, width)
                    expected = _brute_sat(cs)
                    cnf = encode_cnf(cs)
                    n_vars, clauses = parse_dimacs(to_dimacs(cnf))
                    outcome = solve_cnf(n_vars, clauses)
                    got = outcome.status == "sat"
                    assert got == expected, (
                        f"outputs={outputs} centers={centers} width={width}: "
                        f"solver says {outcome.status}, enumeration says "
                        f"{'sat' if expected else 'unsat'}"
                    )
                    if got:
                        model_values = decode_positions(cnf, outcome.model)
                        assert evaluate(cs, model_values)
                        satisfiable += 1
                    instances += 1
    print(
        f"[criterion 6] PASS — DIMACS satisfiability == enumeration on "
        f"{instances} exhaustive instances ({satisfiable} satisfiable), "
        f"zero discrepancies"
    )


# -------------------------------------------------------------- criterion 7


def test_criterion_7_constraint_window_soundness():
    rounds_checked = 0
    pairs_checked = 0
    for name in ("lion", "train4", "dk27", "mc", "bbtas", "shiftreg"):
        enc = encoded_fixture(name)
        cfg = AttackConfig(
            state_count_guess=enc.machine.state_count,
            goal=1.0,
            max_rounds=15,
            seed=1,
        )
        result = attack(build_device(enc, cfg), cfg)
        assert result.goal_met, f"{name}: attack fell short"
        for rnd in result.rounds:
            if rnd.assignment is None:
                continue
            width = rnd.assignment.width
            vals = rnd.assignment.values
            for i, inf in enumerate(rnd.trace.inferred, start=1):
                a, b = vals[i - 1], vals[i]
                hd = bin(a ^ b).count("1")
                if inf.center == 0:
                    assert a == b, (
                        f"{name} round {rnd.round_no} step {i}: self-loop "
                        f"positions got distinct encodings"
                    )
                else:
                    lo = max(1, inf.center - 1)
                    hi = min(width, inf.center + 1)
                    assert lo <= hd <= hi, (
                        f"{name} round {rnd.round_no} step {i}: HD {hd} "
                        f"outside [{lo}, {hi}] for center {inf.center}"
                    )
                pairs_checked += 1
            rounds_checked += 1
    assert rounds_checked > 0
    print(
        f"[criterion 7] PASS — every encoding pair within its inference "
        f"window across {rounds_checked} rounds / {pairs_checked} steps "
        f"on 6 machines"
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(tmp_path, capsys):
    target = tmp_path / "bbtas.kiss2"
    target.write_text(benchmarks.load("bbtas"))
    report = tmp_path / "report.json"
    recovered = tmp_path / "recovered.kiss2"
    flags = [
        "attack", "--target", str(target), "--noise", "table3",
        "--goal", "1.0", "--seed", "5", "--deterministic",
        "--report", str(report), "--recovered", str(recovered),
    ]
    main(flags)
    first = (report.read_bytes(), recovered.read_bytes())
    main(flags)
    assert (report.read_bytes(), recovered.read_bytes()) == first

    cal = ["calibrate", "--samples", "500", "--seed", "9", "--deterministic"]
    assert main(cal) == 0
    out_a = capsys.readouterr().out
    assert main(cal) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    print(
        "[criterion 8] PASS — identical seeds give byte-identical reports "
        "and recovered machines"
    )
