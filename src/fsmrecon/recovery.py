"""Recovering per-position register values from one trace.

Pipeline: starting at the width the trace forces
(:func:`~fsmrecon.constraints.forced_width`, so no narrower width needs a
refutation), derive constraints at a candidate register width, check the
phase seed against them, and only when the seed fails encode to CNF and
solve; on refutation grow the width by one and retry.  The seed comes
from grouping trace positions into guessed state classes (greedy state
merging under determinism closure) and searching for class codes that
honor the distance-window hulls between classes.  When the seed already
satisfies every constraint it is the answer and no CNF is built;
otherwise it primes the solver's decision phases, where a good seed lets
the solver descend to a model without conflicts.  A width is seeded
exactly when it holds a code per class and is at most ``_SEED_MAX_WIDTH``
bits wide, with the class indices as codes where the hulls admit none.  A
caller may pass class codes an earlier answer gave the same classes; at a
seeded width that holds them they are checked first, and when they pass
no hull is built and no code searched.  While outputs name the states, an
attack's classes are the output groups, so :class:`OutputEvidence` keeps
each output's last code for the next round.  Correctness never depends on
the seed, because every answer is checked against the constraints by an
independent evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


# the window of a step that leaves the state where it was
_STAY = (0, 0)


# Ceiling on positions fed to the evidence-driven merge search below: each
# step closes and undoes one trial merge per kept class and frontier class,
# so cost grows with their product; pooled table3 walks of a 32-state,
# one-output-bit machine took 1.0 s at 2,000 positions and 15 s at 8,000
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

    While it holds the state guess is the output groups, and ``codes``
    carries each output's code from one round's assignment to the next
    round's ``prior``; one attack owns one instance, so nothing carries
    between attacks.
    """

    def __init__(self) -> None:
        self.seen: dict[tuple[str, int], tuple[str, int, int]] = {}
        self.holds = True
        self.codes: dict[str, int] = {}

    def add(self, walk: Trace) -> bool:
        """Judge one more walk; returns the verdict over every walk added."""
        if self.holds:
            self.holds = self._scan(walk)
        return self.holds

    def keep(self, walk: Trace, values: tuple[int, ...]) -> None:
        """Remember the code each output of ``walk`` holds in ``values``,
        an assignment returned for it."""
        if self.holds:
            self.codes.update(zip(walk.outputs, values))

    def prior(self, walk: Trace) -> list[int] | None:
        """The kept code of each output group of ``walk``, in group
        order: one code per class of the state guess while the verdict
        holds.  None when it fails or an output has no code yet."""
        if not self.holds:
            return None
        try:
            return [self.codes[out] for out in dict.fromkeys(walk.outputs)]
        except KeyError:
            return None

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
    if evidence is None:
        evidence = OutputEvidence()
        for w in walks:
            evidence.add(w)
    if evidence.holds:
        return trace.groups
    if sum(w.n_steps + 1 for w in walks) > _MERGE_MAX_POSITIONS:
        # the merge search below is too costly here: shed the optional
        # pooled evidence first, past that settle for output grouping
        if extra and n <= _MERGE_MAX_POSITIONS:
            return merge_hypothesis(trace)
        return trace.groups
    graph = _run_graph(walks)
    if graph is None:
        return trace.groups  # inconsistent; best effort
    cong, node_of = graph
    outs = cong.outputs
    edges = cong.edges
    find = cong.find
    # (red, blue) -> (score, the roots its closure joined); a kept merge
    # changes only the classes in its own trail, and a trial none of whose
    # roots it changed would close the same way again
    tried: dict[tuple[int, int], tuple[int, set[int]]] = {}
    red: list[int] = [find(0)]
    while True:
        red = [r for r in red if find(r) == r]
        frontier = sorted(
            {find(t) for r in red for t, _ in edges.get(r, {}).values()}
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
                trial = tried.get((cand, node))
                if trial is None:
                    trial = tried[cand, node] = (
                        cong.merge(cand, node),
                        _trail_roots(cong),
                    )
                    cong.undo()
                score = trial[0]
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
            changed = _trail_roots(cong)
            tried = {
                pair: trial
                for pair, trial in tried.items()
                if changed.isdisjoint(trial[1])
            }

    return cong.classes(node_of[:n])


def _run_graph(walks: list[Trace]) -> tuple[Congruence, list[int]] | None:
    """The evidence-driven search's graph, closed, and the node of each
    pooled position; None when the walks contradict themselves.

    A zero-distance step leaves the state where it was, so each run of
    positions joined by such steps is one node, and the step a self-loop;
    a run with two outputs, or a zero step whose window leaves 0 out, is
    a contradiction.  Nodes are numbered in position order, so a class's
    least node is the run of its least position, as the search's
    tie-breaks need.  A node steps under each input over the meet of its
    members' windows, and two members stepping under one input to two
    nodes force those to name one state.  Every walk begins at the one
    reset state.  One closure pass joins the resets and the forced pairs.
    """
    outs: list[str] = []
    edges: dict[int, dict[int, tuple[int, tuple[int, int]]]] = {}
    pairs: list[tuple[int, int]] = []
    node_of: list[int] = []
    for w in walks:
        node = len(outs)
        if node:
            pairs.append((0, node))
        out = w.outputs[0]
        outs.append(out)
        steps = edges[node] = {}
        node_of.append(node)
        for nxt, vec, inf in zip(w.outputs[1:], w.stimulus, w.inferred):
            label = (inf.lo, inf.hi)
            if inf.center == 0:
                if nxt != out or _window_meet(label, _STAY) is None:
                    return None
                target = node
            else:
                target = len(outs)
            step = steps.get(vec)
            if step is None:
                steps[vec] = (target, label)
            else:
                to, seen = step
                if seen != label:
                    label = _window_meet(seen, label)
                    if label is None:
                        return None
                    steps[vec] = (to, label)
                if to != target:
                    pairs.append((to, target))
            if target != node:
                node = target
                out = nxt
                outs.append(out)
                steps = edges[node] = {}
            node_of.append(node)
    cong = Congruence(outs, edges, _window_meet, loop=_STAY)
    if cong.merge_all(pairs) < 0:
        return None
    return cong, node_of


def _trail_roots(cong: Congruence) -> set[int]:
    """Every root the last merge absorbed or kept."""
    return {root for ry, rx, _, _ in cong.trail for root in (ry, rx)}


def class_hulls(
    cs: ConstraintSet, classes: list[int]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Distance-window hull per class pair.

    The partition is a lax guess, so windows that contradict it — one
    inside a single class, or two between one class pair that do not
    overlap — are dropped, and such a pair is constrained by distinctness
    alone.  A walk repeats few (window, class, class) steps, and
    intersecting a window twice changes nothing, so each distinct step is
    taken once, in first-seen order.
    """
    hulls: dict[tuple[int, int], tuple[int, int]] = {}
    dead: set[tuple[int, int]] = set()
    steps = dict.fromkeys(zip(cs.windows, classes, classes[1:]))
    for (w_lo, w_hi), a, b in steps:
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

    ``width`` is one :func:`recover_encodings` seeds: it holds a code per
    class and is at most ``_SEED_MAX_WIDTH``, past which the ``2**width``-bit
    masks below grow too large.  Most-constrained-first ordering with forward
    checking; deterministic.  Returns None when no assignment exists or the
    node budget runs out.
    A domain is a bit mask over the ``2**width`` codes, and distinctness
    is one mask of the codes still free, so a class's live codes are its
    domain and that mask.  Only hull prunings are undone when the search
    backs up, and a code that leaves some class no live code is caught by
    the next most-constrained pick.  The choice points live on an
    explicit stack, so a thousand classes need no thousand-deep
    recursion.
    """
    size = 1 << width
    full = (1 << size) - 1
    neighbors = _hull_windows(n_classes, width, hulls)
    domains = [full] * n_classes
    free = full  # the codes no class holds
    codes = [-1] * n_classes
    budget = _SEARCH_BUDGET
    # one frame per assigned class: [class, codes left to try, the
    # (class, domain) pairs its current code pruned]
    frames: list[list] = []
    while True:
        cid = -1
        best = size + 1
        for c in range(n_classes):
            if codes[c] < 0:
                live = (domains[c] & free).bit_count()
                if live < best:
                    best = live
                    cid = c
        if cid < 0:
            return codes
        if best:
            frames.append([cid, domains[cid] & free, []])
        # with best 0 the newest code wiped a class out: try its next one
        while frames:
            frame = frames[-1]
            cid, left, pruned = frame
            for other, domain in pruned:
                domains[other] = domain
            pruned.clear()
            if codes[cid] >= 0:
                free |= 1 << codes[cid]
                codes[cid] = -1
            if left:
                break
            frames.pop()
        else:
            return None
        low = left & -left  # codes are tried in ascending order
        frame[1] = left ^ low
        budget -= 1
        if budget <= 0:
            return None
        code = low.bit_length() - 1
        codes[cid] = code
        free ^= low
        for other, window in neighbors[cid]:
            if codes[other] < 0:
                mask = window[code]
                domain = domains[other]
                if domain & mask != domain:
                    pruned.append((other, domain))
                    domains[other] = domain & mask


class _Window(dict):
    """``self[code]``: the mask of the codes whose distance from ``code``
    lies in one hull's window, derived on first use.

    Code 0's mask, given, holds the codes whose popcount lies in the
    window.  Another code's mask is that of its parent, ``code`` less its
    lowest set bit b, with bit b flipped in every position: the parent
    mask's blocks of ``2**b`` positions swap pairwise.
    """

    def __init__(self, around_zero: int, low_half: list[int]):
        super().__init__({0: around_zero})
        self.low_half = low_half  # low_half[b]: the positions with bit b 0

    def __missing__(self, code: int) -> int:
        low = code & -code
        parent = self[code ^ low]
        keep = self.low_half[low.bit_length() - 1]
        mask = self[code] = ((parent & keep) << low) | ((parent >> low) & keep)
        return mask


def _hull_windows(
    n_classes: int, width: int, hulls: dict[tuple[int, int], tuple[int, int]]
) -> list[list[tuple[int, _Window]]]:
    """Per class, (other class, window) for each hull it is in; hulls with
    one window share its masks.  Built per search, so nothing outlives
    the call: a table of every mask at width 12 would take about 29 MB."""
    size = 1 << width
    full = (1 << size) - 1
    low_half = [
        ((1 << (1 << b)) - 1) * (full // ((1 << (2 << b)) - 1))
        for b in range(width)
    ]
    windows: dict[tuple[int, int], _Window] = {}
    neighbors: list[list[tuple[int, _Window]]] = [[] for _ in range(n_classes)]
    for (a, b), (lo, hi) in hulls.items():
        window = windows.get((lo, hi))
        if window is None:
            around_zero = sum(
                1 << v for v in range(size) if lo <= v.bit_count() <= hi
            )
            window = windows[lo, hi] = _Window(around_zero, low_half)
        neighbors[a].append((b, window))
        neighbors[b].append((a, window))
    return neighbors


def seed_codes(cs: ConstraintSet, classes: list[int]) -> list[int]:
    """Class codes for the phase seed at ``cs.width``, which must hold a
    code per class and be at most ``_SEED_MAX_WIDTH``; never None.

    Where the hulls admit no codes (a guessed partition may make them
    jointly unsatisfiable) or the search runs out of its node budget,
    class c takes code c, as a search with no hulls would give it: a
    distinctness-only seed still beats none."""
    n_classes = max(classes) + 1
    codes = search_class_codes(n_classes, cs.width, class_hulls(cs, classes))
    return list(range(n_classes)) if codes is None else codes


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
    timeout_ms: int = 1_000_000,
    classes: list[int] | None = None,
    prior: list[int] | None = None,
    dimacs_prefix: str | None = None,
) -> RecoveryResult:
    """Find a register width and per-position values satisfying the trace.

    Tries widths ``r0 .. r0 + WIDTH_STEPS`` where r0 defaults to
    :func:`~fsmrecon.constraints.forced_width`: every narrower width is
    provably unsatisfiable, so none is tried, refuted or dumped, and the
    first satisfiable width is the same as from width 1.  ``timeout_ms``
    bounds each individual solve.  At each width the phase seed is checked
    first by the direct constraint evaluator; when it passes it is returned
    (status ``"seed"``) with no CNF built and no solver call.  Otherwise
    the width's CNF is encoded, written to ``{dimacs_prefix}width{W}.cnf``
    and ``.vars`` when a path prefix is given (so a dump holds exactly the
    solver's inputs), and solved.  A width is seeded exactly when it holds
    a code per class and is at most ``_SEED_MAX_WIDTH``; the model is
    re-validated by the same evaluator before being trusted.
    ``classes`` is the state-grouping guess behind phase seeding, one class
    per trace position; when omitted it is :func:`merge_hypothesis` of the
    trace alone.  A guess pooled from earlier captures of the same device
    (``merge_hypothesis(trace, earlier)``) is usually sharper; it never
    contributes constraints, so the solved problem is the same either way.
    ``prior`` is one code per class, say those an earlier answer gave the
    same classes.  At each seeded width that holds the largest of them,
    the prior codes, when pairwise distinct and non-negative, are checked
    first, and when they pass they are the seed.  They pass only
    where every hull is met and no window is dropped, so the search
    would have found codes there too, and both code sets are one code per
    class: the width and the partition of the positions are the same as
    without a prior, barring a search that runs out of its node budget.
    """
    r0 = width_start if width_start is not None else forced_width(trace)
    if r0 < 1:
        raise ValueError("width_start must be at least 1")
    timeout_s = timeout_ms / 1000.0
    result = RecoveryResult(assignment=None)
    if classes is None:
        classes = merge_hypothesis(trace)
    n_classes = max(classes) + 1
    seeded = range(code_width(n_classes), _SEED_MAX_WIDTH + 1)
    prior_seed = None
    if prior is not None:
        if len(prior) != n_classes:
            raise ValueError(
                f"expected {n_classes} prior codes, got {len(prior)}"
            )
        if len(set(prior)) == n_classes and min(prior) >= 0:
            prior_seed = [prior[c] for c in classes]

    for width in range(r0, r0 + WIDTH_STEPS + 1):
        cs = build_constraints(trace, width)
        if cs.trivially_unsat:
            result.attempts.append(
                WidthAttempt(width=width, status="infeasible-window")
            )
            continue

        codes = None
        seed = None
        if width in seeded:
            if (
                prior_seed is not None
                and max(prior) < 1 << width
                and find_violation(cs, prior_seed) is None
            ):
                seed = prior_seed
            else:
                codes = seed_codes(cs, classes)
                seed = [codes[c] for c in classes]
                if find_violation(cs, seed) is not None:
                    seed = None
        if seed is not None:
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
        if dimacs_prefix is not None:
            base = f"{dimacs_prefix}width{width}"
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
