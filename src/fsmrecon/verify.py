"""Independent correctness oracles.

Three checks that share no machinery with the recovery pipeline: replaying
captured traces against a machine (a recovered graph is a partial
:class:`~fsmrecon.fsm.MooreFsm`), behavioral equivalence of two machines by
product traversal, and exhaustive minimal-width search over a constraint
set.  Each is deliberately brute-force and simple so it can
arbitrate when the clever path (CNF encoding, CDCL search, folding) is in
question.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .capture import Trace
from .constraints import ConstraintSet, find_violation
from .fsm import MooreFsm

# Hard ceiling on R * (N+1) for exhaustive assignment enumeration: 2**24
# candidate assignments is the most a test-suite call should ever pay for.
ENUMERATION_BITS = 24


@dataclass(frozen=True)
class ReplayIssue:
    """One step where a trace contradicts the graph it is replayed on."""

    trace_index: int
    step: int
    expected: str
    observed: str


@dataclass
class ReplayVerdict:
    """Outcome of replaying traces through a possibly partial machine.

    ``checked_steps`` counts positions whose output the machine could be
    held to; ``skipped_steps`` counts positions past a transition the
    machine does not contain (the walk loses its footing there and the rest of that
    trace is unverifiable).
    """

    consistent: bool
    checked_steps: int
    skipped_steps: int
    issues: list[ReplayIssue] = field(default_factory=list)


@dataclass
class EquivalenceVerdict:
    """Outcome of a behavioral comparison of two machines.

    ``counterexample`` is None iff the machines are equivalent; otherwise
    it is a shortest input-vector sequence after which the two machines'
    outputs differ (the empty sequence means the reset outputs differ).
    ``coverage`` is "full" when every (state, input) lookup during the
    traversal resolved, "partial" when missing transitions forced skips —
    in which case ``skipped_edges`` says how many.
    """

    equivalent: bool
    counterexample: list[int] | None
    coverage: str
    skipped_edges: int = 0


def replay_consistency(machine: MooreFsm, traces: list[Trace]) -> ReplayVerdict:
    """Walk each trace through ``machine`` from its reset and compare outputs.

    Passes iff every step the machine can follow emits the trace's output.
    A step whose transition is absent (legitimately possible in a partial
    recovered graph) ends that trace's walk; the remaining positions count
    as skipped, never as failures.
    """
    outputs, delta = machine.outputs, machine.delta
    issues: list[ReplayIssue] = []
    checked = 0
    skipped = 0
    for t_idx, trace in enumerate(traces):
        if (trace.input_bits, trace.output_bits) != (
            machine.input_bits,
            machine.output_bits,
        ):
            raise ValueError(
                f"trace {t_idx} arity ({trace.input_bits} in, "
                f"{trace.output_bits} out) does not match the machine "
                f"({machine.input_bits} in, {machine.output_bits} out)"
            )
        cur = machine.reset
        if outputs[cur] != trace.outputs[0]:
            issues.append(
                ReplayIssue(t_idx, 0, outputs[cur], trace.outputs[0])
            )
        checked += 1
        for k in range(1, trace.n_steps + 1):
            nxt = delta.get((cur, trace.stimulus[k - 1]))
            if nxt is None:
                skipped += trace.n_steps + 1 - k
                break
            cur = nxt
            if outputs[cur] != trace.outputs[k]:
                issues.append(
                    ReplayIssue(t_idx, k, outputs[cur], trace.outputs[k])
                )
            checked += 1
    return ReplayVerdict(
        consistent=not issues,
        checked_steps=checked,
        skipped_steps=skipped,
        issues=issues,
    )


def equivalent(a: MooreFsm, b: MooreFsm) -> EquivalenceVerdict:
    """Behavioral equivalence by breadth-first product traversal.

    Starting from the reset pair, every reached state pair must emit the
    same output; the first divergence (breadth-first, so a shortest one) is
    returned as a counterexample input sequence.  A (state, input) entry
    missing from either machine is skipped and demotes coverage to
    "partial" — during an attack the recovered graph is legitimately
    incomplete, and equivalence is only claimed over what both machines
    define.
    """
    if (a.input_bits, a.output_bits) != (b.input_bits, b.output_bits):
        raise ValueError(
            f"machines disagree on arity: ({a.input_bits} in, "
            f"{a.output_bits} out) vs ({b.input_bits} in, {b.output_bits} out)"
        )

    skipped = 0
    visited = {(a.reset, b.reset)}
    queue: deque[tuple[int, int, tuple[int, ...]]] = deque(
        [(a.reset, b.reset, ())]
    )
    while queue:
        sa, sb, path = queue.popleft()
        if a.outputs[sa] != b.outputs[sb]:
            return EquivalenceVerdict(
                equivalent=False,
                counterexample=list(path),
                coverage="partial" if skipped else "full",
                skipped_edges=skipped,
            )
        for vec in range(1 << a.input_bits):
            ta = a.delta.get((sa, vec))
            tb = b.delta.get((sb, vec))
            if ta is None or tb is None:
                skipped += 1
                continue
            if (ta, tb) not in visited:
                visited.add((ta, tb))
                queue.append((ta, tb, path + (vec,)))
    return EquivalenceVerdict(
        equivalent=True,
        counterexample=None,
        coverage="partial" if skipped else "full",
        skipped_edges=skipped,
    )


def brute_force_min_width(cs: ConstraintSet, cap: int) -> int | None:
    """Smallest width whose assignments can satisfy ``cs``, by enumeration.

    The windows and output groups are taken exactly as given and
    ``cs.width`` is ignored; widths 1..cap are tried in order and every
    assignment of ``n_positions`` width-R values is checked by
    :func:`~fsmrecon.constraints.find_violation`.  Returns None when even
    ``cap`` admits no satisfying assignment.

    Callers cross-checking a width-adaptive search should build ``cs`` at
    width ``cap``: recorded windows then agree with per-width rebuilding
    for every tried width (an upper bound of at least R is vacuous for
    width-R values, and lower bounds do not depend on width).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = cs.n_positions
    if n * cap > ENUMERATION_BITS:
        raise ValueError(
            f"enumeration bound exceeded: {n} positions * cap {cap} "
            f"> {ENUMERATION_BITS} bits"
        )
    if cs.trivially_unsat:
        return None  # an empty window admits no assignment at any width
    for width in range(1, cap + 1):
        probe = ConstraintSet(width, cs.windows, cs.groups)
        space = 1 << width
        values = [0] * n
        while True:
            if find_violation(probe, values) is None:
                return width
            k = n - 1
            while k >= 0 and values[k] == space - 1:
                values[k] = 0
                k -= 1
            if k < 0:
                break
            values[k] += 1
    return None
