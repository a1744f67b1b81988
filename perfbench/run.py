"""fsmrecon benchmark: attack bundled machines as the CLI would, time it, check it.

One run::

    python3 perfbench/run.py --workload exact-small --seed 3 --seconds 30 --trace 0

attacks the workload's targets pass after pass (see ``workloads.py``) for
about ``--seconds``: a run measures whole passes, at least one, and starts
another only while the mean pass time so far says it ends in time.  Each
attack is bounded by its target's cap, so a run ends within ``--seconds``
plus one pass at its caps.  ``--trace 0`` reports the end-to-end metrics
with tracing off, and takes the set-up probes spread over the run;
``--trace 1`` repeats the work with every layer spanned from outside
(``spans.py``) and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything the run measured, per attack, goes to
``BENCH_<workload>_seed<n>_trace<t>.json`` in ``--out`` (default
``.perfbench-out``).

Without ``--workload`` every workload of BENCHMARK.json is run untraced and
then traced, each in its own fresh process; the tracing overhead and the
agreement of the two passes' fingerprints are printed and written to
``BENCH_seed<n>.json`` there.  ``compare.py`` compares two sets of
runs.

``correct`` is false when a report contradicts itself or its exit code, a
recovered machine contradicts its report, or an attack repeated at the end
of the run recovers something different.  Recovered machines that are not
equivalent to the target, or have more states than it, are known defects of
the program: they are counted in ``wrong_rate`` and ``excess_state_rate``,
not hidden and not treated as a harness failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from harness import Attacker
from spans import Tracer, install, span_times
from workloads import WORKLOADS, Workload, attack_seed

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 21


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "fsmrecon" / "__init__.py").is_file():
        _fail(f"no fsmrecon package under {src}")
    sys.path.insert(0, str(src))


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} is missing")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ setup


def setup_probe(w: Workload) -> float:
    """Seconds to import the program and parse, moorify and encode targets."""
    t0 = time.perf_counter()
    _import_program()
    import fsmrecon
    from fsmrecon import benchmarks, cli  # noqa: F401  (the CLI's imports)

    for t in w.targets:
        machine = fsmrecon.parse_kiss2(benchmarks.load(t.machine))
        if isinstance(machine, fsmrecon.MealyFsm):
            machine = fsmrecon.moorify(machine)
        fsmrecon.assign_binary_encoding(machine)
    return time.perf_counter() - t0


def probe_setup(w: Workload) -> float:
    """Set-up time in a fresh interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", w.name],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------- metrics


def _tail(values: list[float]) -> tuple[float | None, int | None]:
    """Highest whole percentile with at least ten samples above it.

    Below 20 samples that percentile is under the median, not a tail.
    """
    n = len(values)
    if n < 20:
        return None, None
    return sorted(values)[n - 11], (100 * (n - 10)) // n


def end_to_end(records, passes, setup) -> dict:
    done = [r for r in records if "error" not in r]
    if not done:
        return {"failed_rate": (1.0, "share")}
    by_pass: dict[int, float] = {}
    for r in records:
        by_pass[r["pass"]] = by_pass.get(r["pass"], 0.0) + r["seconds"]
    rounds = [x for r in done for x in r["round_s"]]
    tail, pct = _tail(rounds)
    n = len(records)

    def rate(key):
        return sum(bool(r.get(key)) for r in done) / n

    def rate_not(key):  # an attack that failed counts against these
        return sum(not r.get(key) for r in done) / n

    return {
        "wall_s": (statistics.median(by_pass.values()), "s"),
        "steps_per_s": (
            sum(r["steps"] for r in done) / sum(r["seconds"] for r in done),
            "1/s",
        ),
        "round_p50_s": (statistics.median(rounds), "s"),
        "round_tail_s": (tail, "s"),
        "round_tail_pct": (pct, "percentile"),
        "round_samples": (len(rounds), "count"),
        "setup_s": (statistics.median(setup) if setup else None, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
        "fraction_mean": (statistics.fmean(r["fraction"] for r in done), "share"),
        "goal_met_rate": (rate("goal_met"), "share"),
        "rounds_total": (sum(r["rounds"] for r in done) / passes, "count"),
        "wrong_rate": (rate("wrong"), "share"),
        "excess_state_rate": (rate("excess"), "share"),
        "equivalent_rate": (rate_not("wrong"), "share"),
        "minimal_rate": (rate_not("excess"), "share"),
        "failed_rate": ((n - len(done)) / n, "share"),
    }


def per_layer(tracer: Tracer, records, passes) -> dict:
    """Layer totals per pass of the workload; ratios over the whole run."""
    done = [r for r in records if "error" not in r]
    ids = {r["id"] for r in records}
    total, self_s, calls = span_times(tracer.spans, ids)
    c: dict[str, int] = {}
    for i in ids:
        for k, v in tracer.counts.get(i, {}).items():
            c[k] = c.get(k, 0) + v

    statuses: Counter = Counter()
    for r in done:
        statuses.update(r["round_statuses"])

    def per(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.wall_s": (per(total["cli"]), "s"),
        "cli.self_s": (per(self_s["cli"]), "s"),
        "fsm.load_s": (per(total["fsm.load"]), "s"),
        "attack.self_s": (per(self_s["attack"]), "s"),
        "attack.round_yield": (
            ratio(sum(r["merged"] for r in done), sum(r["rounds"] for r in done)),
            "ratio",
        ),
        "attack.escalations": (per(sum(r["escalations"] for r in done)), "count"),
        "capture.s": (per(total["capture"]), "s"),
        "capture.steps": (per(c.get("capture.steps", 0)), "count"),
        "recovery.self_s": (per(self_s["recovery"]), "s"),
        "recovery.attempts_per_call": (
            ratio(calls["constraints.build"], calls["recovery"]), "ratio"
        ),
        "recovery.hypothesis_s": (per(total["recovery.hypothesis"]), "s"),
        "recovery.hypothesis_positions": (
            per(c.get("recovery.hypothesis_positions", 0)), "count"
        ),
        "recovery.seed_search_s": (per(total["recovery.seed_search"]), "s"),
        "recovery.seed_found_ratio": (
            ratio(c.get("sat.seeded", 0), c.get("sat.loads", 0)), "ratio"
        ),
        "constraints.build_s": (per(total["constraints.build"]), "s"),
        "constraints.check_s": (per(total["constraints.check"]), "s"),
        "cnf.encode_s": (per(total["cnf.encode"]), "s"),
        "sat.load_s": (per(total["sat.load"]), "s"),
        "sat.solve_s": (per(total["sat.solve"]), "s"),
        "sat.seed_clean_ratio": (
            ratio(c.get("sat.seeded_clean", 0), c.get("sat.seeded", 0)), "ratio"
        ),
        "stg.fold_s": (per(total["stg.fold"]), "s"),
        "stg.fold_rejected": (per(statuses["fold-rejected"]), "count"),
        "stg.merge_s": (per(total["stg.merge"]), "s"),
        "stg.merge_rejected": (per(statuses["merge-rejected"]), "count"),
        "verify.replay_s": (per(total["verify.replay"]), "s"),
        "verify.replay_rejected": (per(statuses["replay-rejected"]), "count"),
        "verify.equivalent_s": (per(total["verify.equivalent"]), "s"),
        "bench.hook_s": (per(total["bench.hook"]), "s"),
    }
    for key in (
        "cnf.vars", "cnf.clauses", "constraints.distinct",
        "constraints.hd_range", "constraints.identical", "sat.propagations",
        "sat.conflicts", "sat.decisions", "sat.restarts", "sat.attempts_sat",
        "sat.attempts_unsat", "sat.attempts_timeout", "sat.attempts_infeasible",
    ):
        m[key] = (per(c.get(key, 0)), "count")
    return dict(sorted(m.items()))


# -------------------------------------------------------------------- run


def context(seed: int, seconds: int) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_lines,
        "seed": seed,
        "seconds": seconds,
    }


def run(w: Workload, seed: int, seconds: int, traced: bool) -> dict:
    """One run of one workload in this process; returns the results."""
    setup: list[float] = []
    tracer = Tracer()
    install(tracer, full=traced)
    records: list[dict] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        attacker = Attacker(work, w, tracer)
        t0 = time.perf_counter()

        def probe_until(k: int) -> None:
            while not traced and len(setup) < min(k, SETUP_PROBES):
                setup.append(probe_setup(w))

        passes = 0
        # whole passes only: another one starts while it is expected, at
        # the mean pass time so far, to end within --seconds
        while passes == 0 or (time.perf_counter() - t0) * (
            passes + 1
        ) / passes <= seconds:
            for t in w.targets:
                # set-up probe k is due k/SETUP_PROBES of the way into the
                # run, so their median spans the run as the attacks do
                elapsed = time.perf_counter() - t0
                probe_until(1 + int(elapsed * SETUP_PROBES / seconds))
                rec = attacker.attack(t, attack_seed(seed, passes), len(records))
                rec["pass"] = passes
                records.append(rec)
            passes += 1
        measured_s = time.perf_counter() - t0
        probe_until(SETUP_PROBES)
        problems = [
            f"attack {r['id']} ({r['machine']} seed {r['seed']}): {p}"
            for r in records
            for p in r.get("problems", ())
        ]
        done = [r for r in records if "error" not in r]
        if done:
            # Repeat the cheapest attack: the same inputs must recover the
            # same machine through the same solver work.
            first = min(done, key=lambda r: r["seconds"])
            target = next(t for t in w.targets if t.machine == first["machine"])
            again = attacker.attack(target, first["seed"], -2)
            for key in ("fingerprint", "counters", "error"):
                if again.get(key) != first.get(key):
                    problems.append(
                        f"attack {first['id']} repeated: {key} "
                        f"{first.get(key)} then {again.get(key)}"
                    )
    resolved = {
        t.machine: {"vectors": attacker.vectors[t.machine],
                    "rounds_max": attacker.rounds_max, "cap_s": t.cap_s}
        for t in w.targets
    }
    totals: Counter = Counter()
    for r in done:
        totals.update(r.get("counters", {}))
        totals.update({f"rounds.{k}": v for k, v in r["round_statuses"].items()})
    metrics = (
        per_layer(tracer, records, passes)
        if traced
        else end_to_end(records, passes, setup)
    )
    return {
        "context": {
            **context(seed, seconds), "workload": w.name, "noise": w.noise,
            "goal": w.goal, "targets": resolved,
        },
        "trace": int(traced),
        "passes": passes,
        "measured_s": measured_s,
        "attempted": len(records),
        "failed": len(records) - len(done),
        "correct": not problems and bool(done),
        "problems": problems,
        "fingerprint": hashlib.sha256(
            " ".join(r.get("fingerprint", "-") for r in records).encode()
        ).hexdigest()[:16],
        "counter_totals": dict(sorted(totals.items())),
        "setup_probes_s": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attacks": records,
        "spans": tracer.spans if traced else [],
    }


def _print_table(res: dict) -> None:
    ctx = res["context"]
    print(
        f"perfbench {ctx['workload']} seed={ctx['seed']} trace={res['trace']} "
        f"passes={res['passes']} attacks={res['attempted']} "
        f"failed={res['failed']} measured={res['measured_s']:.1f}s "
        f"correct={res['correct']} fingerprint={res['fingerprint']}"
    )
    print("  targets: " + ", ".join(
        f"{m} vectors={t['vectors']} rounds_max={t['rounds_max']}"
        for m, t in ctx["targets"].items()
    ))
    for name, m in res["metrics"].items():
        v = m["value"]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:<32} {shown:>14} {m['unit']}")
    if res["trace"]:
        m = res["metrics"]
        core = sum(m[k]["value"] for k in ("cnf.encode_s", "sat.load_s", "sat.solve_s"))
        print(
            f"  cnf.encode_s + sat.load_s + sat.solve_s = "
            f"{core / m['cli.wall_s']['value']:.1%} of cli.wall_s"
        )
    else:
        wrong = [r for r in res["attacks"] if r.get("wrong")]
        excess = [r for r in res["attacks"] if r.get("excess")]
        print(
            f"  known defects: {len(wrong)} wrong, {len(excess)} with extra "
            f"states, of {res['attempted']} attacks"
        )
        for r in wrong:
            print(
                f"    wrong: {r['machine']} seed {r['seed']} "
                f"counterexample {r['counterexample']}"
            )
    for p in res["problems"]:
        print(f"  PROBLEM: {p}")


def single(args, spec) -> int:
    w = WORKLOADS.get(args.workload)
    if w is None:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    res = run(w, args.seed, args.seconds, bool(args.trace))
    res["context"]["why"] = next(
        (x["why"] for x in spec["workloads"] if x["name"] == w.name), None
    )
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json"
    with open(args.out / name, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    _print_table(res)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: res["metrics"].get(
                m["name"], {"value": None, "unit": m["unit"]}
            )
            for m in wanted
        },
    }
    print(json.dumps(line))
    return 0 if res["correct"] else 1


def everything(args, spec) -> int:
    """Every BENCHMARK.json workload, untraced then traced, fresh processes."""
    results = {}
    ok = True
    for wl in spec["workloads"]:
        pair = []
        for trace in (0, 1):
            cmd = [
                sys.executable, __file__, "--workload", wl["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(args.out),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            ok &= proc.returncode == 0
            name = f"BENCH_{wl['name']}_seed{args.seed}_trace{trace}.json"
            with open(args.out / name, encoding="utf-8") as fh:
                pair.append(json.load(fh))
        plain, traced = pair
        common = min(len(plain["attacks"]), len(traced["attacks"]))
        same = all(
            a.get("fingerprint") == b.get("fingerprint")
            for a, b in zip(plain["attacks"][:common], traced["attacks"][:common])
        )
        overhead = sum(a["seconds"] for a in traced["attacks"][:common]) - sum(
            a["seconds"] for a in plain["attacks"][:common]
        )
        ok &= same
        print(
            f"  {wl['name']}: traced and untraced fingerprints "
            f"{'agree' if same else 'DIFFER'} on {common} attacks; "
            f"tracing overhead {overhead:+.3f} s over them"
        )
        for p in pair:
            p.pop("spans")
        results[wl["name"]] = {
            "untraced": plain, "traced": traced,
            "fingerprints_agree": same, "tracing_overhead_s": overhead,
            "common_attacks": common,
        }
    ctx = context(args.seed, args.seconds)
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            ctx["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), None,
            )
    except OSError:
        ctx["cpu"] = None
    path = args.out / f"BENCH_seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"context": ctx, "workloads": results}, fh, indent=1)
    print(f"wrote {path}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="one workload; default: all of them")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench-out",
                    help="directory for the results files")
    ap.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        print(setup_probe(WORKLOADS[args.setup_probe]))
        return 0
    spec = _spec()
    _import_program()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return single(args, spec) if args.workload else everything(args, spec)


if __name__ == "__main__":
    sys.exit(main())
