"""The attack loop: capture, recover, fold, merge, repeat until the goal.

Each round drives the device with fresh random vectors from reset and
passes the walk through three stages.  ``_solve_round`` solves the round's
constraint system for state encodings at the minimal register width and
retries once, wider, when the solution does not merge and the state guess
has more classes than the width has codes — the first satisfiable width
demonstrably cannot separate all the states then.  ``_fold_and_merge``
folds each solution into a partial transition graph and merges that graph
into the accumulated machine.  A round is dropped when its solution folds
or merges inconsistently, when the fold needs more states than the
operator's upper bound, or when the merged graph fails to replay every
trace captured so far; a dropped round costs coverage, never soundness.
``_challenge`` pools the graphs the accumulated machine refused and lets
that pool take over once it is the bigger, still consistent body of
evidence.  Earlier rounds' traces are pooled as evidence for the next
round's state-grouping guess, which sharpens the phase seed and
contributes no constraints.

A round costs its own walk, not the attack so far, when the outputs
identify the states.  The output-grouping check of the state guess keeps
its evidence across rounds (:class:`~fsmrecon.recovery.OutputEvidence`)
and scans each walk once.  It also keeps the code each output held in the
last assignment a round returned, and the next round checks those codes
first, so a round answered by them builds no class hulls and searches no
codes; the width and the fold are those the search would have given.
The accumulated machine is one
:class:`~fsmrecon.stg.MergeGraph`: a round adds its fold to it, a refused
merge is taken back in place, each trace's replay resumes where it
stopped, and states are numbered only when the result is handed out.
When states share outputs, grouping by output fails and the guess's
evidence-driven search runs over every walk captured so far, up to its
position ceiling, so there a round's guess grows with the rounds before
it.
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass
from decimal import Decimal

from . import recovery
from .capture import (
    BlackBoxDevice,
    Trace,
    choose_vector_count,
    gen_stimulus,
    run_trace,
)
from .fsm import MooreFsm, code_width
from .recovery import EncodingAssignment, WidthAttempt, recover_encodings
from .stg import (
    MergeGraph,
    StgConflictError,
    build_partial_stg,
    recovery_fraction,
)

# perfbench's tracer rebinds these two names in this module, so they stay
# importable from it; the attack itself calls neither
from .stg import merge_rounds  # noqa: F401
from .verify import replay_consistency  # noqa: F401


# 8 times the default round of the largest table the reader accepts (2 x
# 65,536 entries); a round past it is refused before its stimulus is built,
# which at --multiplier 1e300 would run until memory gave out
MAX_VECTORS_PER_ROUND = 1 << 20


@dataclass
class AttackConfig:
    """Everything one attack run needs besides the device itself.

    ``state_count_guess`` is the operator's upper bound X on the number of
    states; together with the device's input width I it sets the
    transition total X * 2**I that the recovery fraction is measured
    against.  ``vectors_per_round`` overrides the default stimulus length
    of ceil(2 * X * 2**I); either way a round is at most
    :data:`MAX_VECTORS_PER_ROUND` vectors.  The constraint set, and the
    CNF a width whose phase seed fails is encoded to, grow linearly with
    the round length, but that CNF's solve is bounded only by
    ``timeout_ms``, so attacks on large machines where the seed misses
    should run many short rounds instead of one covering round.
    ``seed``, at least 0, is the master seed of the round stimuli; the
    device, with its channel and noise seed, is the caller's.
    ``timeout_ms`` bounds each solver call; ``dimacs_dir``, when set,
    receives every CNF solved.
    """

    state_count_guess: int
    vectors_per_round: int | None = None
    goal: float = 0.90
    max_rounds: int = 20
    seed: int = 0
    timeout_ms: int = 1_000_000
    dimacs_dir: str | None = None


@dataclass
class RoundRecord:
    """One attack round: its accounting and the material it was built from.

    ``status`` names the stage that dropped the round, or is ``"merged"``;
    ``"replay-rejected"`` means the fold or the merged graph failed a trace
    captured so far.  ``trace`` is the round's capture; later rounds pool
    it as evidence and replay it as a check, and ``seed`` is read from it.
    ``assignment`` is the last assignment the width search returned, seed
    or model, kept when its fold was rejected too, and None when the last
    search failed; ``width`` is read from it.
    ``solver_ms`` is the wall time of the guess and the width searches,
    fold and merge left out, so it is not solver time alone.
    ``escalations`` is 1 when the round retried at a wider register and 0
    otherwise, and ``attempts`` lists every width tried across both solves.
    ``new_transitions`` and ``fraction`` describe the accumulated graph
    after the round.
    """

    round_no: int
    # "merged" | "fold-rejected" | "merge-rejected" | "replay-rejected"
    # | "solver-failed"
    status: str
    solver_ms: float
    escalations: int
    trace: Trace
    assignment: EncodingAssignment | None
    attempts: tuple[WidthAttempt, ...] = ()
    new_transitions: int = 0
    fraction: float = 0.0

    @property
    def seed(self) -> int:
        return self.trace.seed

    @property
    def width(self) -> int | None:
        return self.assignment.width if self.assignment is not None else None


@dataclass
class AttackResult:
    """Outcome of an attack run.

    ``recovered`` is the accumulated graph, a partial :class:`MooreFsm`
    with states ``s0 .. s{n-1}`` and reset 0, or None when no round
    merged.  ``fraction``, |transitions| / (X * 2**I) for it, is read from
    the last round; ``goal_met`` says whether the loop stopped because the
    goal was reached rather than because rounds ran out.
    """

    recovered: MooreFsm | None
    rounds: list[RoundRecord]
    goal_met: bool
    total_ms: float

    @property
    def fraction(self) -> float:
        return self.rounds[-1].fraction if self.rounds else 0.0

    @property
    def rounds_executed(self) -> int:
        return len(self.rounds)


def _validate(cfg: AttackConfig, device: BlackBoxDevice) -> int:
    if cfg.state_count_guess < 1:
        raise ValueError(
            f"state count guess must be >= 1, got {cfg.state_count_guess}"
        )
    if not 0.0 < cfg.goal <= 1.0:
        raise ValueError(f"goal must be in (0, 1], got {cfg.goal}")
    if cfg.max_rounds < 0:
        raise ValueError(f"max rounds must be >= 0, got {cfg.max_rounds}")
    # the solver's clock counts seconds in a float
    if not 1 <= cfg.timeout_ms <= sys.float_info.max:
        raise ValueError(
            f"timeout must be in [1, {sys.float_info.max:.3g}] ms, "
            f"got {_shown(cfg.timeout_ms)}"
        )
    # random.Random seeds from |seed|, so -5 would repeat seed 5's attack
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.vectors_per_round is None:
        n = choose_vector_count(cfg.state_count_guess, device.input_bits)
    elif cfg.vectors_per_round < 1:
        raise ValueError(
            f"vectors per round must be >= 1, got {cfg.vectors_per_round}"
        )
    else:
        n = cfg.vectors_per_round
    if n > MAX_VECTORS_PER_ROUND:
        raise ValueError(
            f"vectors per round must be <= {MAX_VECTORS_PER_ROUND}, "
            f"got {_shown(n)}"
        )
    return n


def _shown(n: int) -> str:
    """``n``, to three digits past 15 digits: ``--multiplier 1e300`` gives
    301 digits, and an integer flag up to 4,300, past a float's range."""
    return str(n) if n < 10**15 else f"{Decimal(n):.3g}"


def attack(device: BlackBoxDevice, cfg: AttackConfig) -> AttackResult:
    """Run capture/recover/fold/merge rounds until the goal or the cap.

    Every round gets a fresh stimulus seed drawn from the master seed and
    is solved, folded and merged by :func:`_solve_round`.  A round the
    accumulated graph refused is offered to :func:`_challenge`, and a
    round that neither merged nor took over leaves its trace held to the
    accumulated graph.  Failed rounds never abort the attack — the loop
    runs until the recovered fraction reaches ``cfg.goal`` or
    ``cfg.max_rounds`` rounds have executed.
    """
    n_vectors = _validate(cfg, device)
    master = random.Random(cfg.seed)
    acc = MergeGraph()
    challenger: MergeGraph | None = None
    evidence = recovery.OutputEvidence()
    traces: list[Trace] = []
    records: list[RoundRecord] = []
    goal_met = False
    t_start = time.perf_counter()
    for round_no in range(cfg.max_rounds):
        round_seed = master.getrandbits(32)
        stimulus = gen_stimulus(n_vectors, device.input_bits, round_seed)
        traces.append(run_trace(device, stimulus, seed=round_seed))
        evidence.add(traces[-1])
        before = acc.transitions
        record, refused = _solve_round(cfg, round_no, traces, evidence, acc)
        if refused is not None:
            won, challenger = _challenge(acc, challenger, refused, traces)
            if won is not None:
                acc, record.status = won, "merged"
        if record.status != "merged":
            acc.hold(traces[-1])
        record.new_transitions = acc.transitions - before
        record.fraction = recovery_fraction(
            acc.transitions, cfg.state_count_guess, device.input_bits
        )
        records.append(record)
        if record.fraction >= cfg.goal:
            goal_met = True
            break
    return AttackResult(
        recovered=acc.machine(),
        rounds=records,
        goal_met=goal_met,
        total_ms=(time.perf_counter() - t_start) * 1000.0,
    )


def _solve_round(
    cfg: AttackConfig,
    round_no: int,
    traces: list[Trace],
    evidence: recovery.OutputEvidence,
    acc: MergeGraph,
) -> tuple[RoundRecord, MooreFsm | None]:
    """Solve the newest trace and merge its fold into ``acc``, once wider
    on a misfit.

    Returns the round's record (its new transitions and fraction still to
    be filled in) and the fold :func:`_fold_and_merge` handed on for its
    last solve.  Earlier traces pool into the state-grouping guess only;
    ``evidence`` has already judged every trace in ``traces``, and it
    hands both solves the codes earlier rounds left and keeps this
    round's.
    """
    trace = traces[-1]
    t0 = time.perf_counter()
    classes = recovery.merge_hypothesis(trace, traces[:-1], evidence=evidence)
    prior = evidence.prior(trace)
    # Retry wider only when the state-grouping guess itself does not fit
    # the width — the one case where the first satisfiable width
    # demonstrably cannot separate all the states.  Anything else is a
    # noise artifact: drop the round and let the pooled evidence sharpen
    # the next one.  The retry starts at the narrowest width with a code
    # per guessed class and never returns a narrower one, so the guess
    # always fits its answer and a second retry could never run.
    fit = code_width(max(classes) + 1)
    dimacs_prefix = None
    if cfg.dimacs_dir is not None:
        dimacs_prefix = os.path.join(cfg.dimacs_dir, f"round{round_no:02d}_")
    solver_ms = 0.0
    attempts: list[WidthAttempt] = []
    for escalations, width_start in enumerate((None, fit)):
        found = recover_encodings(
            trace,
            width_start=width_start,
            timeout_ms=cfg.timeout_ms,
            classes=classes,
            prior=prior,
            dimacs_prefix=dimacs_prefix,
        )
        solver_ms += (time.perf_counter() - t0) * 1000.0
        attempts += found.attempts
        assignment = found.assignment
        status, refused = _fold_and_merge(cfg, traces, assignment, acc)
        if status == "merged" or assignment is None or assignment.width >= fit:
            break
        t0 = time.perf_counter()
    if assignment is not None:
        evidence.keep(trace, assignment.values)
    record = RoundRecord(
        round_no=round_no,
        status=status,
        solver_ms=solver_ms,
        escalations=escalations,
        trace=trace,
        assignment=assignment,
        attempts=tuple(attempts),
    )
    return record, refused


def _fold_and_merge(
    cfg: AttackConfig,
    traces: list[Trace],
    assignment: EncodingAssignment | None,
    acc: MergeGraph,
) -> tuple[str, MooreFsm | None]:
    """Fold the newest trace under ``assignment`` and merge it into ``acc``.

    ``acc`` keeps the merge when the closure finds no clash and every
    trace it holds still replays; the newest trace replays on its own fold
    and so on every image of it.  Returns (status, fold): the fold is
    handed on when ``acc`` refused it but it replays every trace in
    ``traces`` on its own, and is None otherwise.  No assignment means the
    solve failed.
    """
    if assignment is None:
        return "solver-failed", None
    try:
        graph = build_partial_stg(traces[-1], assignment)
    except StgConflictError:
        return "fold-rejected", None
    if graph.state_count > cfg.state_count_guess:
        # more states than the operator's upper bound: the model left
        # same-state positions apart, so the fold is redundant even though
        # it is deterministic
        return "fold-rejected", None
    merged = acc.merge(graph)
    if merged:
        if acc.replays():
            return "merged", None
        acc.undo()
    if not MergeGraph(graph).replays(traces):
        return "replay-rejected", None
    # the fold replays everything on its own, so the clash with the
    # accumulated graph leaves either side suspect
    return ("replay-rejected" if merged else "merge-rejected"), graph


def _challenge(
    acc: MergeGraph,
    challenger: MergeGraph | None,
    refused: MooreFsm,
    traces: list[Trace],
) -> tuple[MergeGraph | None, MergeGraph | None]:
    """Pool a graph ``acc`` refused into the challenger; maybe take over.

    A dropped round may be right while the accumulated graph is wrong: a
    wrong-but-deterministic early fold would win every later conflict by
    seniority alone.  Refused graphs pool into a challenger graph, which
    starts over from the newest one when they clash; when that mutually
    consistent body strictly outgrows the accumulated graph and still
    replays every captured trace from the reset, the bigger body of
    evidence takes over, holding those traces.  Artifact rounds rarely
    cohere with each other, so a healthy accumulated graph is never
    displaced.

    Returns (graph that takes over or None, challenger kept for later).
    """
    if challenger is None or not challenger.merge(refused):
        challenger = MergeGraph(refused)
    if challenger.transitions > acc.transitions and challenger.replays(traces):
        return challenger, None
    return None, challenger
