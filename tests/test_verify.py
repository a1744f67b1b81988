"""Oracle checks: trace replay, behavioral equivalence, exhaustive width search."""

import random
from dataclasses import replace

import pytest

from fsmrecon import recovery
from fsmrecon.constraints import (
    ConstraintSet,
    build_constraints,
    find_violation,
)
from fsmrecon.fsm import MooreFsm, transition_count
from fsmrecon.recovery import recover_encodings
from fsmrecon.stg import build_partial_stg
from fsmrecon.verify import (
    brute_force_min_width,
    equivalent,
    replay_consistency,
)

from conftest import machine_trace, synthetic_trace, true_state_sequence


def true_fold_graph(name, steps, seed):
    """Fold a walk by ground-truth states — a graph correct by construction."""
    enc, trace = machine_trace(name, steps, seed)
    states = true_state_sequence(enc, trace.stimulus)
    dense = {}
    ids = [dense.setdefault(s, len(dense)) for s in states]
    outputs = [""] * len(dense)
    for pos, sid in enumerate(ids):
        outputs[sid] = trace.outputs[pos]
    delta = {}
    for k in range(trace.n_steps):
        delta[(ids[k], trace.stimulus[k])] = ids[k + 1]
    stg = MooreFsm(
        input_bits=trace.input_bits,
        output_bits=trace.output_bits,
        states=[f"s{i}" for i in range(len(outputs))],
        reset=0,
        delta=delta,
        outputs=outputs,
    )
    return stg, trace, enc


def recovered_graph(name, steps, seed):
    enc, trace = machine_trace(name, steps, seed)
    result = recover_encodings(trace)
    assert result.assignment is not None
    return build_partial_stg(trace, result.assignment), enc


def chain_machine(outputs, output_bits=1):
    """Both input vectors advance along a chain; the last state self-loops."""
    n = len(outputs)
    delta = {}
    for s in range(n):
        t = min(s + 1, n - 1)
        delta[(s, 0)] = t
        delta[(s, 1)] = t
    return MooreFsm(
        input_bits=1,
        output_bits=output_bits,
        states=[f"s{i}" for i in range(n)],
        reset=0,
        delta=delta,
        outputs=list(outputs),
    )


def run_outputs(machine, seq):
    s = machine.reset
    outs = [machine.outputs[s]]
    for vec in seq:
        s = machine.delta[(s, vec)]
        outs.append(machine.outputs[s])
    return outs


# ---------------------------------------------------------------- replay


def test_replay_passes_on_builder_trace():
    stg, trace, _ = true_fold_graph("mc", 120, 9)
    verdict = replay_consistency(stg, [trace])
    assert verdict.consistent
    assert verdict.issues == []
    assert verdict.checked_steps == trace.n_steps + 1
    assert verdict.skipped_steps == 0


def test_replay_flags_flipped_output_with_step_index():
    stg, trace, _ = true_fold_graph("mc", 120, 9)
    flipped = list(trace.outputs)
    flipped[7] = format(int(flipped[7], 2) ^ 1, f"0{trace.output_bits}b")
    bad = replace(trace, outputs=flipped)
    verdict = replay_consistency(stg, [bad])
    assert not verdict.consistent
    assert [issue.step for issue in verdict.issues] == [7]
    assert verdict.issues[0].expected != verdict.issues[0].observed


def test_replay_fresh_exact_traces_pass_on_recovered_graph():
    stg, enc = recovered_graph("mc", 250, 5)
    full = enc.machine.state_count * (1 << enc.machine.input_bits)
    assert transition_count(stg) == full
    fresh = [machine_trace("mc", 100, s)[1] for s in (501, 502)]
    verdict = replay_consistency(stg, fresh)
    assert verdict.consistent
    assert verdict.skipped_steps == 0


def test_replay_skips_unverifiable_tail_after_missing_transition():
    stg, _, _ = true_fold_graph("lion", 150, 3)
    fresh = machine_trace("lion", 60, 777)[1]
    pruned = replace(
        stg,
        delta={
            k: v for k, v in stg.delta.items() if k != (0, fresh.stimulus[0])
        },
    )
    verdict = replay_consistency(pruned, [fresh])
    assert verdict.consistent
    assert verdict.checked_steps == 1  # only the reset output was checkable
    assert verdict.skipped_steps == fresh.n_steps


def test_replay_reports_reset_output_mismatch_at_step_zero():
    stg, trace, _ = true_fold_graph("mc", 80, 2)
    corrupted = replace(
        stg,
        outputs=[format(int(stg.outputs[0], 2) ^ 1, f"0{stg.output_bits}b")]
        + stg.outputs[1:],
    )
    verdict = replay_consistency(corrupted, [trace])
    assert not verdict.consistent
    assert verdict.issues[0].step == 0


def test_replay_arity_mismatch_raises():
    stg, _, _ = true_fold_graph("mc", 50, 1)
    other = synthetic_trace(["0", "0"], [0], input_bits=stg.input_bits + 1)
    with pytest.raises(ValueError, match="arity"):
        replay_consistency(stg, [other])


def test_replay_walks_from_the_machine_reset(lion_encoded):
    m = lion_encoded.machine
    trace = machine_trace("lion", 60, 4)[1]
    # the same machine with its states reversed: the reset is no longer 0
    n = m.state_count
    flipped = MooreFsm(
        input_bits=m.input_bits,
        output_bits=m.output_bits,
        states=m.states[::-1],
        reset=n - 1 - m.reset,
        delta={(n - 1 - s, v): n - 1 - t for (s, v), t in m.delta.items()},
        outputs=m.outputs[::-1],
    )
    assert flipped.reset != 0
    verdict = replay_consistency(flipped, [trace])
    assert verdict.consistent
    assert verdict.checked_steps == trace.n_steps + 1


# ----------------------------------------------------------- equivalence


def test_machine_is_equivalent_to_itself(lion_encoded):
    m = lion_encoded.machine
    verdict = equivalent(m, m)
    assert verdict.equivalent
    assert verdict.counterexample is None
    assert verdict.coverage == "full"
    assert verdict.skipped_edges == 0


def test_equivalence_survives_state_relabeling(lion_encoded):
    m = lion_encoded.machine
    rng = random.Random(13)
    perm = list(range(m.state_count))
    rng.shuffle(perm)
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    permuted = MooreFsm(
        input_bits=m.input_bits,
        output_bits=m.output_bits,
        states=[m.states[inv[n]] for n in range(len(perm))],
        reset=perm[m.reset],
        delta={(perm[s], v): perm[t] for (s, v), t in m.delta.items()},
        outputs=[m.outputs[inv[n]] for n in range(len(perm))],
    )
    verdict = equivalent(permuted, m)
    assert verdict.equivalent
    assert verdict.coverage == "full"


def test_output_fault_yields_certified_counterexample(lion_encoded):
    m = lion_encoded.machine
    faulty_outputs = list(m.outputs)
    faulty_outputs[2] = format(
        int(faulty_outputs[2], 2) ^ 1, f"0{m.output_bits}b"
    )
    faulty = replace(m, outputs=faulty_outputs)
    verdict = equivalent(faulty, m)
    assert not verdict.equivalent
    ce = verdict.counterexample
    assert ce is not None
    assert len(ce) < m.state_count * m.state_count
    outs_a = run_outputs(faulty, ce)
    outs_b = run_outputs(m, ce)
    assert outs_a[-1] != outs_b[-1]
    # every proper prefix agrees — the counterexample is a shortest one
    assert outs_a[:-1] == outs_b[:-1]


def test_counterexample_is_shortest():
    a = chain_machine(["0", "0", "1"])
    b = chain_machine(["0", "0", "0"])
    verdict = equivalent(a, b)
    assert not verdict.equivalent
    assert len(verdict.counterexample) == 2


def test_reset_divergence_gives_empty_counterexample():
    a = chain_machine(["1"])
    b = chain_machine(["0"])
    verdict = equivalent(a, b)
    assert not verdict.equivalent
    assert verdict.counterexample == []


def test_partial_graph_skips_missing_transitions():
    stg, _, enc = true_fold_graph("lion", 150, 3)
    drop = next(iter(sorted(stg.delta)))
    pruned = replace(
        stg,
        delta={k: v for k, v in stg.delta.items() if k != drop},
    )
    verdict = equivalent(pruned, enc.machine)
    assert verdict.equivalent
    assert verdict.coverage == "partial"
    assert verdict.skipped_edges >= 1


def test_complete_recovered_graph_is_fully_equivalent():
    stg, enc = recovered_graph("mc", 250, 5)
    assert transition_count(stg) == enc.machine.state_count * (
        1 << enc.machine.input_bits
    )
    verdict = equivalent(stg, enc.machine)
    assert verdict.equivalent
    assert verdict.coverage == "full"


def test_partial_graph_output_fault_is_certified():
    stg, _, enc = true_fold_graph("mc", 120, 9)
    victim = stg.state_count - 1
    corrupted_outputs = list(stg.outputs)
    corrupted_outputs[victim] = format(
        int(corrupted_outputs[victim], 2) ^ 1, f"0{stg.output_bits}b"
    )
    corrupted = replace(stg, outputs=corrupted_outputs)
    verdict = equivalent(corrupted, enc.machine)
    assert not verdict.equivalent
    ce = verdict.counterexample
    assert run_outputs(corrupted, ce)[-1] != run_outputs(enc.machine, ce)[-1]


def test_equivalence_arity_mismatch_raises():
    a = chain_machine(["00", "01"], output_bits=2)
    b = chain_machine(["0", "1"])
    with pytest.raises(ValueError, match="arity"):
        equivalent(a, b)


# ------------------------------------------------- exhaustive width search


def cs_of(groups, windows=None, width=4):
    """Output group per position, then one window per step, vacuous
    (0, width) when none are given."""
    if windows is None:
        windows = [(0, width)] * (len(groups) - 1)
    return ConstraintSet(width=width, windows=windows, groups=groups)


def test_three_pairwise_distinct_positions_need_two_bits():
    cs = cs_of([0, 1, 2])
    assert brute_force_min_width(cs, 4) == 2


def test_single_identical_constraint_needs_one_bit():
    cs = cs_of([0, 0], [(0, 0)])
    assert brute_force_min_width(cs, 4) == 1


def test_identical_distinct_contradiction_has_no_width():
    cs = cs_of([0, 1], [(0, 0)])
    assert brute_force_min_width(cs, 4) is None


def test_empty_recorded_window_has_no_width():
    cs = cs_of([0, 0], [(3, 2)])
    assert brute_force_min_width(cs, 4) is None


def test_minimum_distance_two_needs_two_bits():
    cs = cs_of([0, 0], [(2, 3)])
    assert brute_force_min_width(cs, 4) == 2


def test_cap_below_minimum_returns_none():
    cs = cs_of([0, 1, 2])
    assert brute_force_min_width(cs, 1) is None


def test_enumeration_bound_is_enforced():
    cs = cs_of([0] * 5)
    with pytest.raises(ValueError, match="bound"):
        brute_force_min_width(cs, 5)
    with pytest.raises(ValueError, match="cap"):
        brute_force_min_width(cs, 0)


def test_solver_width_matches_exhaustive_minimum():
    """The central cross-check: first-satisfiable width == enumerated minimum."""
    rng = random.Random(4242)
    cap = 4
    checked = 0
    attempts = 0
    while checked < 40:
        attempts += 1
        assert attempts < 500, "instance generator starved"
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
        assert result.assignment is not None
        assert result.assignment.width == w_star
        probe = build_constraints(trace, w_star)
        assert find_violation(probe, list(result.assignment.values)) is None
        checked += 1


def test_solver_and_enumeration_agree_nothing_fits_a_contradiction(
    monkeypatch,
):
    monkeypatch.setattr(recovery, "WIDTH_STEPS", 3)
    # a zero-distance step between differing outputs can never be satisfied
    trace = synthetic_trace(["0", "1"], [0])
    assert brute_force_min_width(build_constraints(trace, 4), 4) is None
    result = recover_encodings(trace)
    assert result.assignment is None
    assert all(a.status == "unsat" for a in result.attempts)
