"""Outside-in tracing: spans around calls into fsmrecon's modules.

The program is not changed.  Its modules bind what they call with
``from .x import y``, so a call from ``fsmrecon.attack`` to ``run_trace``
looks the name up in ``fsmrecon.attack``'s own namespace; the tracer swaps
that binding, in the calling module, for a wrapper that records a span
(name, start, end, parent span, attack) and, where a layer's work is
countable, adds counts taken from the call's arguments or result.

Modules are fetched with ``importlib.import_module``: the package
re-exports the ``attack`` function under the name of its module, so
``import fsmrecon.attack`` would hand back the function.

Counting runs inside a ``bench.hook`` span, a child of the span that was
open around the traced call, so it never lands in any layer's self time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        # one [name, start, end, parent index, attack id] per call
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.attack = -1  # id the harness gives the attack in progress
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.attack])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass

    def reset(self) -> None:
        """Forget open spans; used after the attack cap cut a call short."""
        self._stack.clear()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.attack][key] += n

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        if hook is not None:
            h = self.open("bench.hook")
            try:
                hook(self, result, *args, **kwargs)
            finally:
                self.close(h)
        return result

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced


# ------------------------------------------------------------------ hooks


def _capture_steps(t: Tracer, trace, *args, **kwargs) -> None:
    t.count("capture.steps", trace.n_steps)


def _hypothesis_positions(t: Tracer, result, trace, extra=(), **kw) -> None:
    if not t.inside("recovery.hypothesis"):  # its own fallback re-enters
        t.count(
            "recovery.hypothesis_positions",
            trace.n_steps + 1 + sum(w.n_steps + 1 for w in extra),
        )


def _constraint_counts(t: Tracer, cs, *args, **kwargs) -> None:
    if cs.trivially_unsat:
        t.count("sat.attempts_infeasible")
    for kind, n in cs.counts().items():
        t.count(f"constraints.{kind}", n)


def _cnf_size(t: Tracer, cnf, *args, **kwargs) -> None:
    t.count("cnf.vars", cnf.n_vars)
    t.count("cnf.clauses", len(cnf.clauses))


def _traced_solver(t: Tracer, base):
    """``CdclSolver`` with its constructor (clause loading) and ``solve`` spanned."""

    class TracedSolver(base):
        def __init__(self, *args, **kwargs):
            self._seeded = kwargs.get("initial_phases") is not None
            t.call("sat.load", super().__init__, args, kwargs)

        def solve(self):
            out = t.call("sat.solve", super().solve)
            h = t.open("bench.hook")
            t.count("sat.loads")
            t.count(f"sat.attempts_{out.status}")
            for key in ("conflicts", "decisions", "propagations", "restarts"):
                t.count(f"sat.{key}", getattr(out.stats, key))
            if self._seeded:
                t.count("sat.seeded")
                if out.stats.conflicts == 0:
                    t.count("sat.seeded_clean")
            t.close(h)
            return out

    return TracedSolver


# ---------------------------------------------------------------- install


def install(t: Tracer, full: bool) -> None:
    """Swap module bindings for traced wrappers.

    With ``full`` False only round boundaries are recorded: the ``attack``
    call the CLI makes and each ``run_trace`` call inside it.
    """
    cli = importlib.import_module("fsmrecon.cli")
    atk = importlib.import_module("fsmrecon.attack")
    rec = importlib.import_module("fsmrecon.recovery")
    plan = [
        (cli, "attack", "attack", None),
        (atk, "run_trace", "capture", _capture_steps if full else None),
    ]
    if full:
        plan += [
            (cli, "_load_moore", "fsm.load", None),
            (cli, "assign_binary_encoding", "fsm.load", None),
            (atk, "recover_encodings", "recovery", None),
            (atk, "build_partial_stg", "stg.fold", None),
            (atk, "merge_rounds", "stg.merge", None),
            (atk, "replay_consistency", "verify.replay", None),
            (rec, "merge_hypothesis", "recovery.hypothesis",
             _hypothesis_positions),
            (rec, "build_constraints", "constraints.build",
             _constraint_counts),
            (rec, "encode_cnf", "cnf.encode", _cnf_size),
            (rec, "class_hulls", "recovery.seed_search", None),
            (rec, "search_class_codes", "recovery.seed_search", None),
            (rec, "build_phases", "recovery.seed_search", None),
            (rec, "find_violation", "constraints.check", None),
        ]
    for module, attr, name, hook in plan:
        setattr(module, attr, t.wrap(name, getattr(module, attr), hook))
    if full:
        rec.CdclSolver = _traced_solver(t, rec.CdclSolver)


# --------------------------------------------------------------- summaries


def span_times(spans: list[list], attacks: set[int]):
    """Per span name: (total, self time, calls) over the given attacks.

    Total counts only outermost calls of a name, so a function that
    re-enters itself is not counted twice; self time is a span's duration
    minus the part its direct children cover.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for i, (name, start, end, parent, attack) in enumerate(spans):
        if attack not in attacks:
            continue
        dur = end - start
        self_s[name] += dur - child[i]
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += dur
    return total, self_s, calls
