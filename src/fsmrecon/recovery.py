"""Recovering per-position register values from one trace.

Pipeline: starting at the width the trace forces
(:func:`~fsmrecon.constraints.forced_width`, so no narrower width needs a
refutation), derive constraints at a candidate register width, check the
phase seed against them, and only when the seed fails encode to CNF and
solve; on refutation grow the width by one and retry.  The seed comes from
grouping trace positions into guessed state classes (greedy state merging
under determinism closure) and searching for class codes that honor the
distance-window hulls between classes.  When the seed already satisfies
every constraint it is the answer and no CNF is built; otherwise it primes
the solver's decision phases, where a good seed lets the solver descend to
a model without conflicts.  Correctness never depends on the seed, because
every answer is checked against the constraints by an independent
evaluator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

from .capture import Trace
from .cnf import Cnf, decode_positions, encode_cnf, to_dimacs, variable_map_text
from .congruence import Congruence
from .constraints import (
    ConstraintSet,
    build_constraints,
    find_violation,
    forced_width,
)
from .fsm import code_width
from .sat import SAT, TIMEOUT, UNSAT, CdclSolver, SolverStats

WIDTH_STEPS = 16  # probe r0 .. r0 + WIDTH_STEPS, r0 the forced width by default
_SEED_MAX_WIDTH = 12  # beyond this the class-code domain is too large
_SEARCH_BUDGET = 500_000


class ModelViolationError(RuntimeError):
    """A solver model failed the independent constraint evaluator."""


@dataclass(frozen=True)
class EncodingAssignment:
    """Register width and one value per trace position."""

    width: int
    values: tuple[int, ...]


@dataclass
class WidthAttempt:
    """One width tried; ``stats`` is the solve's, None when no solver ran,
    and ``n_vars``/``n_clauses`` size the solver's CNF, 0 when none ran."""

    width: int
    status: str  # "seed" | "sat" | "unsat" | "timeout" | "infeasible-window"
    seeded: bool = False
    n_vars: int = 0
    n_clauses: int = 0
    stats: SolverStats | None = None


@dataclass
class RecoveryResult:
    """The solution, or None when the last attempt timed out or the widths
    ran out; ``attempts`` tells which."""

    assignment: EncodingAssignment | None
    attempts: list[WidthAttempt] = field(default_factory=list)


# ----------------------------------------------------------- partitioning


def _window_meet(
    x: tuple[int, int], y: tuple[int, int]
) -> tuple[int, int] | None:
    """One state stepped by one input moves a fixed distance, so the
    distance windows of two identified steps must overlap."""
    lo, hi = max(x[0], y[0]), min(x[1], y[1])
    return (lo, hi) if lo <= hi else None


# Ceiling on positions fed to the evidence-driven merge search below: each
# step closes and undoes one trial merge per kept class and frontier class,
# so cost grows with their product; pooled table3 walks of a 32-state,
# one-output-bit machine took 1.7 s at 2,000 positions and 42 s at 8,000
# (Python 3.11, 2 vCPUs).  Captures past the ceiling either pass the
# one-pass output-grouping check or settle for plain output grouping.
_MERGE_MAX_POSITIONS = 2000


class OutputEvidence:
    """Whether grouping positions by output is a consistent state guess,
    judged one walk at a time.

    Determinism closure never joins two outputs, so closing the output
    partition either fails or returns it unchanged, and it fails exactly
    when one (output, input) pair steps to two successor outputs or over
    distance windows with no common point.  Add the rule that a nonzero
    step never joins one class to itself, and one dictionary pass decides
    it, with no union-find.  ``seen`` maps each (output, input) pair to its
    successor output and the running window intersection.  The verdict
    ``holds`` does not depend on the order the walks come in, and once
    false it stays false, so an attack adds each round's walk once and
    scans nothing twice.
    """

    def __init__(self) -> None:
        self.seen: dict[tuple[str, int], tuple[str, int, int]] = {}
        self.holds = True

    def add(self, walk: Trace) -> bool:
        """Judge one more walk; returns the verdict over every walk added."""
        if self.holds:
            self.holds = self._scan(walk)
        return self.holds

    def _scan(self, walk: Trace) -> bool:
        seen = self.seen
        outs = walk.outputs
        for out, nxt, vec, inf in zip(
            outs, outs[1:], walk.stimulus, walk.inferred
        ):
            if inf.center > 0 and out == nxt:
                return False
            key = (out, vec)
            prev = seen.get(key)
            if prev is None:
                seen[key] = (nxt, inf.lo, inf.hi)
                continue
            to, lo, hi = prev
            if to != nxt:
                return False
            if inf.lo > lo or inf.hi < hi:  # the window narrows
                lo = inf.lo if inf.lo > lo else lo
                hi = inf.hi if inf.hi < hi else hi
                if lo > hi:
                    return False
                seen[key] = (to, lo, hi)
        return True


def _outputs_identify_states(walks: list[Trace]) -> bool:
    """The :class:`OutputEvidence` verdict over ``walks``, all at once."""
    evidence = OutputEvidence()
    return all(evidence.add(w) for w in walks)


def merge_hypothesis(
    trace: Trace,
    extra: list[Trace] | tuple[Trace, ...] = (),
    evidence: OutputEvidence | None = None,
) -> list[int]:
    """Guess which trace positions share a state, by evidence-driven merging.

    Grouping by output vector is tried first, by :class:`OutputEvidence`
    over every walk, with no union-find.  It holds when each (output,
    input) pair steps to one successor output, the distance windows of
    those steps share a point, and no step with a nonzero distance joins
    two equal outputs; it is exact whenever every state owns its output
    vector.
    Failing that, positions joined by exact zero-distance
    steps are one node from the start, and determinism closure runs over
    them: one node stepped by one input reaches one node.  A core of
    confirmed-distinct classes then grows outward: any frontier node that
    clashes with every core class is itself a new class, and otherwise the
    frontier merge corroborated by the most evidence is taken — a merge is
    valid when closure finds no output clash and no step with a nonzero
    distance window collapses into a self-loop.
    The result is a deterministic grouping consistent with everything the
    trace shows; it seeds solver decision phases, so a wrong guess on sparse
    evidence costs solver conflicts, never correctness.

    ``extra`` traces captured from the same device contribute evidence
    without contributing positions: all traces start at the one reset state,
    so their position graphs join at the root and every extra observation
    sharpens the merges.  A single walk rarely pins down machines with few
    distinct outputs; pooled walks usually do.  ``evidence``, when given,
    must hold exactly ``trace`` and ``extra``: a caller that adds each walk
    as it is captured need not have them all rescanned.  Past the search's
    position ceiling the pooled walks are shed, and the trace alone is
    judged afresh.
    """
    n = trace.n_steps + 1
    walks = [trace, *extra]
    for w in walks[1:]:
        if (w.input_bits, w.output_bits) != (
            trace.input_bits,
            trace.output_bits,
        ):
            raise ValueError("pooled traces must share input/output arity")
    grouped = (
        _outputs_identify_states(walks) if evidence is None else evidence.holds
    )
    if grouped:
        return trace.groups
    *offsets, total = accumulate((w.n_steps + 1 for w in walks), initial=0)
    if total > _MERGE_MAX_POSITIONS:
        # the merge search below is too costly here: shed the optional
        # pooled evidence first, past that settle for output grouping
        if extra and n <= _MERGE_MAX_POSITIONS:
            return merge_hypothesis(trace)
        return trace.groups
    outs: list[str] = []
    succs: dict[int, dict[int, tuple[int, tuple[int, int]]]] = {}
    for w, off in zip(walks, offsets):
        outs.extend(w.outputs)
        for k in range(w.n_steps):
            inf = w.inferred[k]
            succs.setdefault(off + k, {})[w.stimulus[k]] = (
                off + k + 1,
                (inf.lo, inf.hi),
            )
    # a state that steps to itself moves distance 0
    cong = Congruence(outs, succs, _window_meet, loop=(0, 0))
    # every walk begins at the same physical reset state
    for off in offsets[1:]:
        if cong.merge(0, off) < 0:
            return trace.groups
    # zero-distance steps: same state before and after, merge up front
    for w, off in zip(walks, offsets):
        for k, inf in enumerate(w.inferred):
            if inf.center == 0:
                if cong.merge(off + k, off + k + 1) < 0:
                    # inconsistent; best effort
                    return trace.groups

    find = cong.find
    red: list[int] = [find(0)]
    while True:
        red = [r for r in red if find(r) == r]
        frontier = sorted(
            {
                find(t)
                for r in red
                for t, _ in cong.edges.get(r, {}).values()
            }
            - set(red)
        )
        if not frontier:
            break
        best = None  # (key, cand, node)
        for bi, node in enumerate(frontier):
            mergeable = False
            for ri, cand in enumerate(red):
                if outs[cand] != outs[node]:
                    continue
                score = cong.merge(cand, node)
                cong.undo()
                if score < 0:
                    continue
                mergeable = True
                key = (score, -bi, -ri)
                if best is None or key > best[0]:
                    best = (key, cand, node)
            if not mergeable:
                red.append(node)  # distinct from every class: a new one
                break
        else:
            cong.merge(*best[1:])

    return cong.classes(n)


def class_hulls(
    cs: ConstraintSet, classes: list[int]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Distance-window hull per class pair.

    The partition is a lax guess, so windows that contradict it — one
    inside a single class, or two between one class pair that do not
    overlap — are dropped, and such a pair is constrained by distinctness
    alone.
    """
    hulls: dict[tuple[int, int], tuple[int, int]] = {}
    dead: set[tuple[int, int]] = set()
    for (w_lo, w_hi), a, b in zip(cs.windows, classes, classes[1:]):
        if w_hi == 0 or a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in dead:
            continue
        lo, hi = hulls.get(key, (0, cs.width))
        lo, hi = max(lo, w_lo), min(hi, w_hi)
        if lo > hi:
            hulls.pop(key, None)
            dead.add(key)
            continue
        hulls[key] = (lo, hi)
    return hulls


def search_class_codes(
    n_classes: int,
    width: int,
    hulls: dict[tuple[int, int], tuple[int, int]],
) -> list[int] | None:
    """Search for pairwise-distinct class codes meeting every hull.

    Most-constrained-first ordering with forward checking; deterministic.
    Returns None when no assignment exists or the node budget runs out.
    The choice points live on an explicit stack, so a thousand classes
    need no thousand-deep recursion.
    """
    if width > _SEED_MAX_WIDTH or width < code_width(n_classes):
        return None
    size = 1 << width
    neighbors: dict[int, list[tuple[int, int, int]]] = {}
    for (a, b), (lo, hi) in hulls.items():
        neighbors.setdefault(a, []).append((b, lo, hi))
        neighbors.setdefault(b, []).append((a, lo, hi))
    domains = [set(range(size)) for _ in range(n_classes)]
    codes = [-1] * n_classes
    budget = _SEARCH_BUDGET
    # one frame per assigned class: (class, codes left to try, what the
    # current code removed from other domains)
    frames: list[tuple[int, Iterator[int], list[tuple[int, int]]]] = []
    while True:
        cid = -1
        best = size + 1
        for c in range(n_classes):
            if codes[c] < 0 and len(domains[c]) < best:
                best = len(domains[c])
                cid = c
        if cid < 0:
            return codes
        frames.append((cid, iter(sorted(domains[cid])), []))
        while frames:  # the next code that survives forward checking
            cid, values, removed = frames[-1]
            for other, cand in removed:
                domains[other].add(cand)
            removed.clear()
            codes[cid] = -1
            code = next(values, None)
            if code is None:
                frames.pop()
                continue
            budget -= 1
            if budget <= 0:
                return None
            codes[cid] = code
            wiped = False
            for other in range(n_classes):
                if codes[other] < 0 and code in domains[other]:
                    domains[other].discard(code)  # codes stay distinct
                    removed.append((other, code))
                    if not domains[other]:
                        wiped = True
                        break
            if not wiped:
                for other, lo, hi in neighbors.get(cid, ()):
                    if codes[other] >= 0:
                        continue
                    for cand in sorted(domains[other]):
                        hd = (cand ^ code).bit_count()
                        if not lo <= hd <= hi:
                            domains[other].discard(cand)
                            removed.append((other, cand))
                    if not domains[other]:
                        wiped = True
                        break
            if not wiped:
                break
        else:
            return None


def seed_codes(cs: ConstraintSet, classes: list[int]) -> list[int] | None:
    """Class codes for the phase seed at ``cs.width``, or None."""
    hulls = class_hulls(cs, classes)
    codes = search_class_codes(max(classes) + 1, cs.width, hulls)
    if codes is None and hulls:
        # hulls may be jointly unsatisfiable under a guessed partition;
        # a distinctness-only seed still beats none
        codes = search_class_codes(max(classes) + 1, cs.width, {})
    return codes


def build_phases(
    cnf: Cnf, classes: list[int], codes: list[int]
) -> dict[int, bool]:
    """Decision phases priming each position's bits with its class code."""
    phases: dict[int, bool] = {}
    width = cnf.width
    for p in range(cnf.n_positions):
        code = codes[classes[p]]
        for b in range(width):
            phases[cnf.var(p, b)] = bool(
                (code >> (width - 1 - b)) & 1
            )
    return phases


# -------------------------------------------------------------- main loop


def recover_encodings(
    trace: Trace,
    *,
    width_start: int | None = None,
    timeout_ms: int | None = 1_000_000,
    classes: list[int] | None = None,
    dimacs_dir: str | None = None,
    dimacs_prefix: str = "",
) -> RecoveryResult:
    """Find a register width and per-position values satisfying the trace.

    Tries widths ``r0 .. r0 + WIDTH_STEPS`` where r0 defaults to
    :func:`~fsmrecon.constraints.forced_width`: every narrower width is
    provably unsatisfiable, so none is tried, refuted or dumped, and the
    first satisfiable width is the same as from width 1.  ``timeout_ms``
    bounds each individual solve.  At each width the phase seed is checked
    first by the direct constraint evaluator; when it passes it is returned
    (status ``"seed"``) with no CNF built and no solver call.  Otherwise
    the width's CNF is encoded, written to ``dimacs_dir`` when set (so a
    dump holds exactly the solver's inputs), and solved, and the model is
    re-validated by the same evaluator before being trusted.
    ``classes`` is the state-grouping guess behind phase seeding, one class
    per trace position; when omitted it is :func:`merge_hypothesis` of the
    trace alone.  A guess pooled from earlier captures of the same device
    (``merge_hypothesis(trace, earlier)``) is usually sharper; it never
    contributes constraints, so the solved problem is the same either way.
    """
    r0 = width_start if width_start is not None else forced_width(trace)
    if r0 < 1:
        raise ValueError("width_start must be at least 1")
    timeout_s = None if timeout_ms is None else timeout_ms / 1000.0
    result = RecoveryResult(assignment=None)
    if classes is None:
        classes = merge_hypothesis(trace)

    for width in range(r0, r0 + WIDTH_STEPS + 1):
        cs = build_constraints(trace, width)
        if cs.trivially_unsat:
            result.attempts.append(
                WidthAttempt(width=width, status="infeasible-window")
            )
            continue

        codes = seed_codes(cs, classes)
        if codes is not None:
            seed = [codes[c] for c in classes]
            if find_violation(cs, seed) is None:
                # the seed is a model: the solver, deciding position bits
                # first on these phases, would return exactly it
                result.attempts.append(
                    WidthAttempt(width=width, status="seed", seeded=True)
                )
                result.assignment = EncodingAssignment(
                    width=width, values=tuple(seed)
                )
                return result

        cnf = encode_cnf(cs)
        if dimacs_dir is not None:
            base = os.path.join(dimacs_dir, f"{dimacs_prefix}width{width}")
            with open(base + ".cnf", "w", encoding="ascii") as fh:
                fh.write(to_dimacs(cnf))
            with open(base + ".vars", "w", encoding="ascii") as fh:
                fh.write(variable_map_text(cnf))
        phases = None if codes is None else build_phases(cnf, classes, codes)

        solver = CdclSolver(
            cnf.n_vars, cnf.clauses, initial_phases=phases, timeout_s=timeout_s
        )
        out = solver.solve()
        result.attempts.append(
            WidthAttempt(
                width=width,
                status=out.status,
                seeded=phases is not None,
                n_vars=cnf.n_vars,
                n_clauses=len(cnf.clauses),
                stats=out.stats,
            )
        )

        if out.status == SAT:
            values = decode_positions(cnf, out.model)
            violation = find_violation(cs, values)
            if violation is not None:
                raise ModelViolationError(
                    f"model at width {width} breaks positions {violation}"
                )
            result.assignment = EncodingAssignment(
                width=width, values=tuple(values)
            )
            return result
        if out.status == TIMEOUT:
            return result
        assert out.status == UNSAT

    return result
