"""Driving one attack through ``fsmrecon.cli.main`` and judging its output.

Each attack runs in-process exactly as ``fsmrecon attack ... --deterministic``
would, under a wall-time cap the harness enforces from outside with
``SIGALRM``: the program's own only bound is a per-solve timeout.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import signal
from collections import Counter

from spans import Tracer
from workloads import Target, Workload, cli_argv


class AttackCapExceeded(BaseException):
    """The harness's per-attack wall-time cap fired.

    A BaseException, so no handler inside the program can swallow it.
    """


def _alarm(signum, frame):
    raise AttackCapExceeded


def _fingerprint(report: dict, recovered: str) -> str:
    """Hash of the deterministic report and the recovered KISS2.

    The report's file paths and interpreter version say where and with
    what the attack ran, not what it recovered, so they are left out.
    """
    body = {k: v for k, v in report.items() if k not in ("artifacts", "versions")}
    body["target"] = {k: v for k, v in report["target"].items() if k != "path"}
    text = json.dumps(body, sort_keys=True) + "\n" + recovered
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Attacker:
    """Attacks one workload's targets from a working directory."""

    def __init__(self, workdir: str, w: Workload, tracer: Tracer):
        fsm = importlib.import_module("fsmrecon")
        benchmarks = importlib.import_module("fsmrecon.benchmarks")
        self.cli = importlib.import_module("fsmrecon.cli")
        self.equivalent = importlib.import_module("fsmrecon.verify").equivalent
        self.parse_kiss2 = fsm.parse_kiss2
        self.w = w
        self.tracer = tracer
        self.report = os.path.join(workdir, "report.json")
        self.recovered = os.path.join(workdir, "recovered.kiss2")
        self.paths: dict[str, str] = {}
        self.targets: dict[str, object] = {}
        self.vectors: dict[str, int] = {}
        for t in w.targets:
            text = benchmarks.load(t.machine)
            path = os.path.join(workdir, f"{t.machine}.kiss2")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            machine = fsm.parse_kiss2(text)
            if isinstance(machine, fsm.MealyFsm):
                machine = fsm.moorify(machine)
            self.paths[t.machine] = path
            self.targets[t.machine] = machine
            self.vectors[t.machine] = (
                t.vectors
                if t.vectors is not None
                else self.cli.choose_vector_count(
                    machine.state_count, machine.input_bits
                )
            )
        self.rounds_max = w.rounds_max if w.rounds_max is not None else (
            self.cli.build_parser()
            .parse_args(["attack", "--target", "x"])
            .rounds_max
        )
        signal.signal(signal.SIGALRM, _alarm)

    def attack(self, t: Target, seed: int, attack_id: int) -> dict:
        """Run one attack; the record says what it did and what was wrong."""
        for p in (self.report, self.recovered):
            if os.path.exists(p):
                os.remove(p)
        tr = self.tracer
        tr.attack = attack_id
        first_span = len(tr.spans)
        argv = cli_argv(
            self.w, t, seed, self.paths[t.machine], self.report, self.recovered
        )
        rec = {"id": attack_id, "machine": t.machine, "seed": seed}
        signal.setitimer(signal.ITIMER_REAL, t.cap_s)
        try:
            code = tr.call("cli", self.cli.main, (argv,))
        except AttackCapExceeded:
            tr.reset()
            rec["error"] = f"passed the {t.cap_s:.0f} s cap"
        except Exception as exc:  # an attack that raises is a failed attack
            tr.reset()
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        spans = tr.spans[first_span:]
        cli_span = next(s for s in spans if s[0] == "cli")
        rec["seconds"] = cli_span[2] - cli_span[1]
        if "error" not in rec and not os.path.exists(self.report):
            rec["error"] = f"exit {code} without a report"
        if "error" in rec:
            return rec
        rec["exit"] = code
        self._judge(rec, t)
        ends = [s for s in spans if s[0] == "attack"]
        starts = [s[1] for s in spans if s[0] == "capture"]
        bounds = starts + [ends[0][2]] if ends else []
        rec["round_s"] = [b - a for a, b in zip(bounds, bounds[1:])]
        if tr.counts.get(attack_id):
            rec["counters"] = dict(sorted(tr.counts[attack_id].items()))
        return rec

    def _judge(self, rec: dict, t: Target) -> None:
        """Check the report against itself and the recovered machine against
        the target; record the known-defect classes as flags."""
        problems: list[str] = []
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        res = report["result"]
        recovered = ""
        if os.path.exists(self.recovered):
            with open(self.recovered, encoding="utf-8") as fh:
                recovered = fh.read()
        rounds = report["rounds"]
        rec.update(
            rounds=len(rounds),
            steps=len(rounds) * report["config"]["vectors_per_round"],
            merged=sum(r["status"] == "merged" for r in rounds),
            escalations=sum(r["escalations"] for r in rounds),
            round_statuses=dict(
                sorted(Counter(r["status"] for r in rounds).items())
            ),
            fraction=res["fraction"],
            goal_met=res["goal_met"],
            states=res["states"],
            target_states=self.targets[t.machine].state_count,
            fingerprint=_fingerprint(report, recovered),
        )
        if rec["exit"] != (0 if res["goal_met"] else 3):
            problems.append(f"exit {rec['exit']} with goal_met={res['goal_met']}")
        if res["goal_met"] != (res["fraction"] >= self.w.goal):
            problems.append("goal_met disagrees with fraction")
        if res["rounds_executed"] != len(rounds) or not (
            1 <= len(rounds) <= self.rounds_max
        ):
            problems.append(f"{len(rounds)} rounds reported")
        if report["config"]["vectors_per_round"] != self.vectors[t.machine]:
            problems.append("vectors per round differ from the workload's")
        if bool(recovered) != (res["states"] > 0):
            problems.append("recovered file disagrees with the state count")
        rec["wrong"] = False
        if recovered:
            try:
                got = self.parse_kiss2(recovered)
            except ValueError as exc:
                problems.append(f"recovered KISS2 does not parse: {exc}")
                rec["problems"] = problems
                return
            if (got.state_count, len(got.delta)) != (
                res["states"], res["transitions"]
            ):
                problems.append("recovered KISS2 disagrees with the report")
            target = self.targets[t.machine]
            verdict = self.tracer.call(
                "verify.equivalent", self.equivalent, (got, target)
            )
            if not verdict.equivalent:
                rec["wrong"] = True
                rec["counterexample"] = verdict.counterexample
        rec["excess"] = res["states"] > rec["target_states"]
        if problems:
            rec["problems"] = problems
