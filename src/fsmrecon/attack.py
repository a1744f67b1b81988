"""The attack loop: capture, recover, fold, merge, repeat until the goal.

Each round drives the device with fresh random vectors from reset, solves
the round's constraint system for state encodings, folds the solution into
a partial transition graph, and merges that graph into the accumulated
machine.  A round is dropped when its solution folds or merges
inconsistently, when the fold needs more states than the operator's upper
bound, or when the folded or merged graph fails to replay every trace
captured so far; a dropped round costs coverage, never soundness.  The one
rejection that earns a retry at a wider register is a state-grouping guess
with more classes than the width has codes — the first satisfiable width
demonstrably cannot separate all the states then.  Earlier rounds' traces
are pooled as evidence for the next round's state-grouping guess, which
sharpens the phase seed (taken as the answer when it satisfies the
constraints, otherwise the solver's decision phases) and contributes no
constraints.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .capture import (
    BlackBoxDevice,
    Trace,
    choose_vector_count,
    gen_stimulus,
    run_trace,
)
from .channel import CalibrationTable, DEFAULT_TABLE, NoiseModel
from .fsm import EncodedFsm
from .recovery import EncodingAssignment, WidthAttempt, recover_encodings
from .stg import (
    PartialStg,
    StgConflictError,
    build_partial_stg,
    merge_rounds,
    recovery_fraction,
)
from .verify import replay_consistency


@dataclass
class AttackConfig:
    """Everything one attack run needs besides the device itself.

    ``state_count_guess`` is the operator's upper bound X on the number of
    states; together with ``input_bits`` it sets the transition total
    X * 2**input_bits that the recovery fraction is measured against.
    ``vectors_per_round`` overrides the default stimulus length of
    ceil(multiplier * X * 2**input_bits).  The constraint set grows
    linearly with the round length, but a width whose phase seed fails is
    encoded to a CNF that grows quadratically (one distinctness clause per
    pair of positions with differing outputs), so attacks on large machines
    where the seed misses should run many short rounds instead of one
    covering round.  ``noise`` is the channel model a device built from
    this config uses (see :func:`build_device`).
    """

    state_count_guess: int
    input_bits: int
    vectors_per_round: int | None = None
    multiplier: float = 2.0
    goal: float = 0.90
    max_rounds: int = 20
    seed: int = 0
    noise: NoiseModel | None = None
    timeout_ms: int = 1_000_000
    width_escalations: int = 2
    keep_debug: bool = False
    dimacs_dir: str | None = None


@dataclass
class RoundRecord:
    """Accounting for one attack round."""

    round_no: int
    seed: int
    # "merged" | "fold-rejected" | "merge-rejected" | "replay-rejected"
    # | "solver-failed"
    status: str
    width: int | None
    solver_ms: float
    escalations: int
    new_transitions: int
    fraction: float
    attempts: tuple[WidthAttempt, ...] = ()


@dataclass
class RoundDebug:
    """Raw per-round material retained when ``keep_debug`` is set."""

    round_no: int
    trace: Trace
    assignment: EncodingAssignment | None
    accepted: bool


@dataclass
class AttackResult:
    """Outcome of an attack run.

    ``recovered`` is None when no round merged.  ``fraction`` is
    |transitions| / (X * 2**input_bits) for the final graph; ``goal_met``
    says whether the loop stopped because the goal was reached rather than
    because rounds ran out.
    """

    recovered: PartialStg | None
    rounds: list[RoundRecord]
    fraction: float
    goal_met: bool
    total_ms: float
    debug: list[RoundDebug] = field(default_factory=list)

    @property
    def rounds_executed(self) -> int:
        return len(self.rounds)


def build_device(
    encoded: EncodedFsm,
    cfg: AttackConfig,
    table: CalibrationTable = DEFAULT_TABLE,
) -> BlackBoxDevice:
    """The device this config attacks: config noise (default exact), config seed."""
    return BlackBoxDevice(
        encoded,
        cfg.noise if cfg.noise is not None else NoiseModel.exact(),
        noise_seed=cfg.seed,
        table=table,
    )


def _validate(cfg: AttackConfig, device: BlackBoxDevice) -> int:
    if cfg.state_count_guess < 1:
        raise ValueError(
            f"state count guess must be >= 1, got {cfg.state_count_guess}"
        )
    if not 0.0 < cfg.goal <= 1.0:
        raise ValueError(f"goal must be in (0, 1], got {cfg.goal}")
    if cfg.max_rounds < 0:
        raise ValueError(f"max rounds must be >= 0, got {cfg.max_rounds}")
    if cfg.timeout_ms < 1:
        raise ValueError(f"timeout must be >= 1 ms, got {cfg.timeout_ms}")
    if cfg.width_escalations < 0:
        raise ValueError(
            f"width escalations must be >= 0, got {cfg.width_escalations}"
        )
    if cfg.input_bits != device.input_bits:
        raise ValueError(
            f"config says {cfg.input_bits} input bits, device has "
            f"{device.input_bits}"
        )
    if cfg.vectors_per_round is not None:
        if cfg.vectors_per_round < 1:
            raise ValueError(
                f"vectors per round must be >= 1, got {cfg.vectors_per_round}"
            )
        return cfg.vectors_per_round
    return choose_vector_count(
        cfg.state_count_guess, cfg.input_bits, cfg.multiplier
    )


def attack(device: BlackBoxDevice, cfg: AttackConfig) -> AttackResult:
    """Run capture/recover/fold/merge rounds until the goal or the cap.

    Every round gets a fresh stimulus seed drawn from the master seed.  A
    round fails by solver failure, by a nondeterministic or oversized
    fold, by a merge conflict against the accumulated graph, or by a
    fold/merge result that cannot replay the pooled traces.  A failed
    round retries at a wider register — up to ``cfg.width_escalations``
    times — only while the state-grouping guess has more classes than the
    current width has codes; otherwise it is dropped as a noise artifact.
    Failures never abort the attack — the loop runs until the recovered
    fraction reaches ``cfg.goal`` or ``cfg.max_rounds`` rounds have
    executed.
    """
    n_vectors = _validate(cfg, device)
    master = random.Random(cfg.seed)
    acc: PartialStg | None = None
    challenger: PartialStg | None = None
    prior: list[Trace] = []
    records: list[RoundRecord] = []
    debug: list[RoundDebug] = []
    goal_met = False
    t_start = time.perf_counter()
    for round_no in range(cfg.max_rounds):
        round_seed = master.getrandbits(32)
        stimulus = gen_stimulus(n_vectors, cfg.input_bits, round_seed)
        trace = run_trace(device, stimulus, seed=round_seed)
        before = acc.transition_count if acc is not None else 0
        status = "solver-failed"
        width: int | None = None
        solver_ms = 0.0
        escalations = 0
        assignment: EncodingAssignment | None = None
        attempts: list[WidthAttempt] = []
        accepted = False
        width_start: int | None = None
        rejected_graph: PartialStg | None = None
        for retry in range(cfg.width_escalations + 1):
            escalations = retry
            rejected_graph = None
            t0 = time.perf_counter()
            rec = recover_encodings(
                trace,
                width_start=width_start,
                timeout_ms=cfg.timeout_ms,
                seed_traces=tuple(prior),
                dimacs_dir=cfg.dimacs_dir,
                dimacs_prefix=f"round{round_no:02d}_",
            )
            solver_ms += (time.perf_counter() - t0) * 1000.0
            attempts.extend(rec.attempts)
            if not rec.success:
                status = "solver-failed"
                assignment = None
                break
            assignment = rec.assignment
            width = assignment.width
            guessed_states = (
                max(rec.classes) + 1 if rec.classes else None
            )
            try:
                graph = build_partial_stg(trace, assignment, round_no=round_no)
                if graph.state_count > cfg.state_count_guess:
                    # more states than the operator's upper bound: the
                    # model left same-state positions apart, so the fold
                    # is redundant even though it is deterministic
                    raise StgConflictError(
                        f"fold has {graph.state_count} states, guess says "
                        f"at most {cfg.state_count_guess}"
                    )
            except StgConflictError:
                status = "fold-rejected"
            else:
                verdict = replay_consistency(graph, [*prior, trace])
                if not verdict.consistent:
                    status = "replay-rejected"
                else:
                    try:
                        candidate = merge_rounds(acc, graph)
                    except StgConflictError:
                        status = "merge-rejected"
                        rejected_graph = graph
                    else:
                        verdict = replay_consistency(
                            candidate, [*prior, trace]
                        )
                        if not verdict.consistent:
                            # the fold replayed everything on its own, so
                            # the clash with the accumulated graph leaves
                            # either side suspect
                            status = "replay-rejected"
                            rejected_graph = graph
                        else:
                            acc = candidate
                            status = "merged"
                            accepted = True
                            break
            # Retry wider only when the state-grouping guess itself does
            # not fit the width — the one case where the first
            # satisfiable width demonstrably cannot separate all the
            # states.  Anything else is a noise artifact: drop the round
            # and let the pooled evidence sharpen the next one.
            if guessed_states is None or guessed_states <= (1 << width):
                break
            width_start = max(width + 1, (guessed_states - 1).bit_length())
        if not accepted and rejected_graph is not None:
            # A dropped round may be right while the accumulated graph is
            # wrong: a wrong-but-deterministic early fold would win every
            # later conflict by seniority alone.  Rounds it rejects pool
            # into a challenger graph; when that mutually consistent body
            # strictly outgrows the accumulated graph and still replays
            # every captured trace, the bigger body of evidence takes
            # over.  Artifact rounds rarely cohere with each other, so a
            # healthy accumulated graph is never displaced.
            if challenger is None:
                challenger = rejected_graph
            else:
                try:
                    challenger = merge_rounds(challenger, rejected_graph)
                except StgConflictError:
                    challenger = rejected_graph
            acc_count = acc.transition_count if acc is not None else 0
            if challenger.transition_count > acc_count and replay_consistency(
                challenger, [*prior, trace]
            ).consistent:
                acc = challenger
                challenger = None
                status = "merged"
                accepted = True
        prior.append(trace)
        fraction = recovery_fraction(
            acc, cfg.state_count_guess, cfg.input_bits
        )
        records.append(
            RoundRecord(
                round_no=round_no,
                seed=round_seed,
                status=status,
                width=width,
                solver_ms=solver_ms,
                escalations=escalations,
                new_transitions=(
                    acc.transition_count - before if acc is not None else 0
                ),
                fraction=fraction,
                attempts=tuple(attempts),
            )
        )
        if cfg.keep_debug:
            debug.append(RoundDebug(round_no, trace, assignment, accepted))
        if fraction >= cfg.goal:
            goal_met = True
            break
    total_ms = (time.perf_counter() - t_start) * 1000.0
    return AttackResult(
        recovered=acc,
        rounds=records,
        fraction=recovery_fraction(acc, cfg.state_count_guess, cfg.input_bits),
        goal_met=goal_met,
        total_ms=total_ms,
        debug=debug,
    )
