"""Compare two sets of benchmark runs, or check the spread of one.

    python3 perfbench/compare.py A_DIR [B_DIR]

Each directory holds the ``BENCH_<workload>_seed<n>_trace<t>.json`` files
that ``run.py --out DIR`` writes.  For every workload and every end-to-end
metric of BENCHMARK.json this prints each set's median, quartiles and
spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them).  A spread over the
metric's bound fails; with two sets, so does a second median worse than
the first by more than the bound.  Runs of the
same workload, seed and trace setting in both sets must also have
recovered the same machines (fingerprints) and, where traced, counted the
same solver and constraint work, attack for attack over the attacks both
runs reached.  Exit status 1 reports a failure.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

NAME = re.compile(r"BENCH_(.+)_seed(-?\d+)_trace([01])\.json$")


def load(directory: str) -> dict:
    runs = {}
    for p in sorted(Path(directory).glob("BENCH_*_seed*_trace*.json")):
        m = NAME.search(p.name)
        if m:
            with open(p, encoding="utf-8") as fh:
                runs[(m[1], int(m[2]), int(m[3]))] = json.load(fh)
    return runs


def share(x: float, base: float) -> float:
    """``x`` as a share of ``base``; from a base of 0, any rise is infinite."""
    if base:
        return x / base
    return 0.0 if x <= 0 else float("inf")


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, share(q3 - q1, med)


def same_work(a: dict, b: dict) -> list[str]:
    """Attack-by-attack identity of what two runs recovered and counted."""
    out = []
    for x, y in zip(a["attacks"], b["attacks"]):
        for key in ("fingerprint", "counters"):
            if x.get(key) != y.get(key):
                out.append(f"attack {x['id']} ({x['machine']} seed {x['seed']}) {key}")
    return out


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [load(d) for d in argv]
    ok = True
    for wl in spec["workloads"]:
        w = wl["name"]
        print(w)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for label, runs in zip("AB", sets):
                vals = [
                    r["metrics"][name]["value"]
                    for (rw, _, t), r in sorted(runs.items())
                    if rw == w and t == 0
                ]
                if len(vals) < 2:
                    print(f"  {name:<14} {label}: {len(vals)} untraced runs")
                    continue
                q1, med, q3, s = spread(vals)
                meds.append(med)
                flag = ""
                if s > bound:
                    flag, ok = "  SPREAD OVER BOUND", False
                elif s > bound / 3:
                    flag = "  (over a third of the bound)"
                print(
                    f"  {name:<14} {label}: n={len(vals)} median={med:.6g} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={s:.3f} "
                    f"bound={bound}{flag}"
                )
            if len(meds) == 2:
                a, b = meds
                worse = share(b - a if metric["better"] == "lower" else a - b, a)
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                ok &= worse <= bound
                print(f"  {name:<14} B vs A: {worse:+.3f} worse ({verdict})")
    if len(sets) == 2:
        a_runs, b_runs = sets
        shared = sorted(set(a_runs) & set(b_runs))
        bad = [
            (key, d) for key in shared for d in same_work(a_runs[key], b_runs[key])
        ]
        for key, d in bad:
            print(f"DIFFERENT {key}: {d}")
        print(
            f"fingerprints and counters: {len(shared)} run pairs, "
            f"{'identical' if not bad else f'{len(bad)} differences'}"
        )
        ok &= not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
