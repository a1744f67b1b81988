"""End-to-end attack-loop behavior: termination, accounting, invariants."""

import dataclasses
import hashlib
import importlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import encoded_fixture, random_moore, synthetic_trace
from fsmrecon import benchmarks, recovery
from fsmrecon.attack import (
    AttackConfig,
    AttackResult,
    _challenge,
    attack,
)
from fsmrecon.capture import BlackBoxDevice, gen_stimulus, run_trace
from fsmrecon.channel import NoiseModel
from fsmrecon.cli import main
from fsmrecon.fsm import (
    MooreFsm,
    assign_binary_encoding,
    code_width,
    serialize_kiss2,
    transition_count,
)
from fsmrecon.recovery import (
    EncodingAssignment,
    RecoveryResult,
    recover_encodings,
)
from fsmrecon.stg import (
    MergeGraph,
    StgConflictError,
    build_partial_stg,
    merge_rounds,
    recovery_fraction,
)
from fsmrecon.verify import equivalent, replay_consistency

# the package exports the ``attack`` function under the module's name
attack_mod = importlib.import_module("fsmrecon.attack")

SMALL_BENCHMARKS = ["lion", "train4", "dk27", "mc", "bbtas", "shiftreg"]


def run_attack(name, *, seed=1, goal=1.0, max_rounds=10, noise=None, **kw):
    """Attack a bundled machine as the CLI does: the device's noise seed
    is the attack seed, and the channel is exact unless ``noise`` says."""
    enc = encoded_fixture(name)
    cfg = AttackConfig(
        state_count_guess=enc.machine.state_count,
        goal=goal,
        max_rounds=max_rounds,
        seed=seed,
        **kw,
    )
    device = BlackBoxDevice(enc, noise or NoiseModel.exact(), noise_seed=seed)
    return enc, cfg, attack(device, cfg)


# ---------------------------------------------------------------- termination


def test_lion_exact_full_recovery_in_few_rounds():
    enc, cfg, res = run_attack("lion", vectors_per_round=32)
    assert res.goal_met
    assert res.fraction == 1.0
    assert res.rounds_executed <= 10
    verdict = equivalent(res.recovered, enc.machine)
    assert verdict.equivalent and verdict.coverage == "full"


def test_ten_state_machine_reaches_goal_under_banded_noise():
    enc, cfg, res = run_attack(
        "opus",
        goal=0.9,
        max_rounds=20,
        seed=11,
        vectors_per_round=200,
        noise=NoiseModel.table3(),
    )
    assert res.goal_met
    assert res.fraction >= 0.9
    # everything recovered is right, even where coverage is partial
    assert equivalent(res.recovered, enc.machine).equivalent


def test_zero_rounds_returns_empty_result():
    enc, cfg, res = run_attack("lion", max_rounds=0)
    assert res.recovered is None
    assert res.fraction == 0.0
    assert not res.goal_met
    assert res.rounds == [] and res.rounds_executed == 0


def test_goal_unmet_runs_all_rounds():
    _, _, res = run_attack("s386", goal=1.0, max_rounds=2,
                           vectors_per_round=50)
    assert not res.goal_met
    assert res.rounds_executed == 2
    assert res.fraction < 1.0


@pytest.mark.parametrize("name", SMALL_BENCHMARKS)
def test_exact_channel_small_machines_reach_equivalence(name):
    enc, cfg, res = run_attack(name, max_rounds=15)
    assert res.goal_met and res.fraction == 1.0
    verdict = equivalent(res.recovered, enc.machine)
    assert verdict.equivalent and verdict.coverage == "full"


@pytest.mark.parametrize("name", SMALL_BENCHMARKS)
def test_banded_noise_small_machines_reach_equivalence(name):
    enc, cfg, res = run_attack(
        name, seed=7, max_rounds=15, noise=NoiseModel.table3()
    )
    assert res.goal_met and res.fraction == 1.0
    assert equivalent(res.recovered, enc.machine).equivalent


# ---------------------------------------------------------------- accounting


def test_fraction_is_non_decreasing_across_rounds():
    for name, noise in [("lion", None), ("shiftreg", None),
                        ("bbtas", NoiseModel.table3())]:
        _, _, res = run_attack(name, max_rounds=15, noise=noise)
        fractions = [r.fraction for r in res.rounds]
        assert fractions == sorted(fractions), name
        assert res.fraction == fractions[-1]


def test_new_transition_counts_telescope_to_the_total():
    _, _, res = run_attack("shiftreg", max_rounds=15)
    assert sum(r.new_transitions for r in res.rounds) == \
        transition_count(res.recovered)


def test_rejected_rounds_do_not_abort_the_attack():
    # seed 1 on shiftreg makes round 0 fold into a wrong-but-deterministic
    # graph, so later rounds are rejected until the challenger takes over
    _, _, res = run_attack("shiftreg", seed=1, max_rounds=15)
    statuses = [r.status for r in res.rounds]
    assert any(s != "merged" for s in statuses)
    assert res.goal_met and res.fraction == 1.0


def test_escalation_is_bounded_and_recorded():
    _, _, res = run_attack("shiftreg", seed=1, max_rounds=15)
    assert any(r.escalations > 0 for r in res.rounds)
    for r in res.rounds:
        assert r.escalations <= 1
        if r.escalations and r.status == "merged":
            # the retry happened because 8 hypothesis classes cannot fit
            # the narrower register, so the merged width must hold them
            assert r.width >= 3


def test_escalations_reuse_the_round_state_guess(monkeypatch):
    calls = []
    depth = 0
    guess = recovery.merge_hypothesis

    def counting(trace, extra=(), **kw):
        nonlocal depth
        if depth == 0:  # its own fallback re-enters through the module
            calls.append(trace.seed)
        depth += 1
        try:
            return guess(trace, extra, **kw)
        finally:
            depth -= 1

    monkeypatch.setattr(recovery, "merge_hypothesis", counting)
    _, _, res = run_attack("shiftreg", seed=1, max_rounds=15)
    assert any(r.escalations > 0 for r in res.rounds)
    assert calls == [r.seed for r in res.rounds]


def test_failed_escalation_reports_no_width(monkeypatch):
    # the width-1 solution folds every position into one state, which
    # clashes on outputs; the guess's three classes need a wider register,
    # and the wider solve fails
    widths = []

    def fake_recover(trace, *, width_start=None, **kw):
        widths.append(width_start)
        if width_start is None:
            n = trace.n_steps + 1
            return RecoveryResult(
                assignment=EncodingAssignment(width=1, values=(0,) * n)
            )
        return RecoveryResult(assignment=None)

    monkeypatch.setattr(
        recovery,
        "merge_hypothesis",
        lambda trace, extra=(), **kw: [
            k % 3 for k in range(trace.n_steps + 1)
        ],
    )
    monkeypatch.setattr(attack_mod, "recover_encodings", fake_recover)
    _, _, res = run_attack("lion", max_rounds=1)
    (rec,) = res.rounds
    assert widths == [None, 2]
    assert rec.status == "solver-failed"
    assert rec.escalations == 1
    assert rec.assignment is None
    assert rec.width is None


def test_dimacs_dump_leaves_the_attack_unchanged(tmp_path):
    # shiftreg at seed 1 retries wider, so retry widths are dumped too
    _, _, plain = run_attack("shiftreg", seed=1, max_rounds=15)
    _, _, dumped = run_attack(
        "shiftreg", seed=1, max_rounds=15, dimacs_dir=str(tmp_path)
    )

    def summary(res):
        return [
            (r.status, r.width, r.escalations, r.assignment)
            for r in res.rounds
        ]

    assert summary(dumped) == summary(plain)
    assert serialize_kiss2(dumped.recovered) == serialize_kiss2(
        plain.recovered
    )
    assert any(r.escalations for r in dumped.rounds)
    # one pair per solver call: a width the seed answers runs no solver
    bases = [
        f"round{r.round_no:02d}_width{a.width}"
        for r in dumped.rounds
        for a in r.attempts
        if a.stats is not None
    ]
    assert bases
    assert len(set(bases)) == len(bases)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        base + ext for base in bases for ext in (".cnf", ".vars")
    )


def test_round_seeds_are_distinct_and_reproducible():
    _, _, a = run_attack("lion", seed=5, max_rounds=10)
    _, _, b = run_attack("lion", seed=5, max_rounds=10)
    assert [r.seed for r in a.rounds] == [r.seed for r in b.rounds]
    seeds = [r.seed for r in a.rounds]
    assert len(set(seeds)) == len(seeds)


def test_identical_seeds_give_identical_results():
    _, _, a = run_attack("bbtas", seed=3, max_rounds=15,
                         noise=NoiseModel.table3())
    _, _, b = run_attack("bbtas", seed=3, max_rounds=15,
                         noise=NoiseModel.table3())
    assert a.fraction == b.fraction and a.goal_met == b.goal_met
    assert [(r.status, r.width, r.fraction) for r in a.rounds] == \
        [(r.status, r.width, r.fraction) for r in b.rounds]
    assert a.recovered.outputs == b.recovered.outputs
    assert a.recovered.delta == b.recovered.delta


def test_different_seeds_give_different_stimuli():
    _, _, a = run_attack("lion", seed=1, max_rounds=1)
    _, _, b = run_attack("lion", seed=2, max_rounds=1)
    assert a.rounds[0].trace.stimulus != b.rounds[0].trace.stimulus


# ---------------------------------------------------------------- invariants


def test_final_graph_replays_every_captured_trace():
    for name in ("shiftreg", "bbtas"):
        _, _, res = run_attack(name, max_rounds=15)
        traces = [r.trace for r in res.rounds]
        assert replay_consistency(res.recovered, traces).consistent, name


def test_recovered_graph_endpoints_are_known_states():
    enc, _, res = run_attack("dk27", max_rounds=15)
    g = res.recovered
    assert len(g.outputs) == g.state_count
    assert g.states == [f"s{i}" for i in range(g.state_count)]
    assert g.reset == 0
    for (state, vec), dst in g.delta.items():
        assert 0 <= state < g.state_count and 0 <= dst < g.state_count
        assert 0 <= vec < (1 << enc.machine.input_bits)


def random_attack_setup(seed, n_states, input_bits, output_bits, kind,
                        vectors):
    """A 4-round, goal-1.0 attack on a seeded random complete Moore machine,
    with the machine's state count as the operator's bound X: a maker of
    fresh devices and the config."""
    machine = random_moore(
        random.Random(seed), n_states, input_bits, output_bits
    )
    cfg = AttackConfig(
        state_count_guess=n_states,
        vectors_per_round=vectors,
        goal=1.0,
        max_rounds=4,
        seed=seed,
    )
    enc = assign_binary_encoding(machine)

    def make_device():
        return BlackBoxDevice(enc, NoiseModel(kind=kind), noise_seed=seed)

    return make_device, cfg


def random_attack(**args):
    make_device, cfg = random_attack_setup(**args)
    return attack(make_device(), cfg)


random_attack_args = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_states=st.integers(min_value=1, max_value=4),
    input_bits=st.integers(min_value=1, max_value=2),
    output_bits=st.integers(min_value=1, max_value=2),
    kind=st.sampled_from(["exact", "table3", "gaussian"]),
    vectors=st.integers(min_value=4, max_value=40),
)


@given(**random_attack_args)
@settings(max_examples=100, deadline=None)
def test_attack_accounting_holds_on_random_machines(**args):
    # Neither replay of the traces after the last merge nor a fraction
    # that never falls is asserted: a wrong early graph can outlive the
    # rounds it refuses, and a merge that collapses duplicate states loses
    # transitions.
    res = random_attack(**args)
    merged = [i for i, r in enumerate(res.rounds) if r.status == "merged"]
    if merged:
        traces = [r.trace for r in res.rounds[: merged[-1] + 1]]
        assert replay_consistency(res.recovered, traces).consistent
        total = transition_count(res.recovered)
    else:
        assert res.recovered is None
        total = 0
    assert res.fraction == recovery_fraction(
        total, args["n_states"], args["input_bits"]
    )
    assert sum(r.new_transitions for r in res.rounds) == total
    assert res.goal_met == (res.fraction >= 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: a wrong early graph refuses every later round "
    "and is never displaced",
)
def test_final_graph_replays_every_round_and_is_equivalent():
    # rounds 2 and 3 are merge-rejected; the counterexample is [2, 0, 0]
    res = random_attack(seed=9, n_states=4, input_bits=2, output_bits=2,
                        kind="exact", vectors=15)
    machine = random_moore(random.Random(9), 4, 2, 2)
    traces = [r.trace for r in res.rounds]
    assert replay_consistency(res.recovered, traces).consistent
    assert equivalent(res.recovered, machine).equivalent


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: a merge that identifies duplicate states "
    "loses transitions",
)
def test_fraction_never_falls_on_a_random_machine():
    # fractions 0.375, 0.375, 0.5, 0.25
    res = random_attack(seed=157, n_states=4, input_bits=1, output_bits=1,
                        kind="exact", vectors=5)
    fractions = [r.fraction for r in res.rounds]
    assert fractions == sorted(fractions)


# ------------------------------------------------------ fold-and-merge stage


def fold_first_and_merge(cfg, traces, assignment, acc):
    """The fold-and-merge stage replaying the fold before merging it.

    Returns (status, merged graph, graph ``acc`` refused).
    """
    if assignment is None:
        return "solver-failed", None, None
    try:
        graph = build_partial_stg(traces[-1], assignment)
    except StgConflictError:
        return "fold-rejected", None, None
    if graph.state_count > cfg.state_count_guess:
        return "fold-rejected", None, None
    if not replay_consistency(graph, traces).consistent:
        return "replay-rejected", None, None
    try:
        merged = merge_rounds(acc, graph)
    except StgConflictError:
        return "merge-rejected", None, graph
    if not replay_consistency(merged, traces).consistent:
        return "replay-rejected", None, graph
    return "merged", merged, None


def checking_stages(run):
    """Call ``run`` with every fold-and-merge stage checked against
    :func:`fold_first_and_merge` on the accumulated graph as a MooreFsm;
    return its result and a count of the (status, graph handed on) kinds
    seen."""
    seen = Counter()
    stage = attack_mod._fold_and_merge

    def checked(cfg, traces, assignment, acc):
        before = acc.machine()
        old, merged, refused = fold_first_and_merge(
            cfg, traces, assignment, before
        )
        status, graph = stage(cfg, traces, assignment, acc)
        assert status == old
        # merged in place, or left exactly as it was
        assert acc.machine() == (merged if merged is not None else before)
        assert graph == refused
        seen[status, merged is not None or refused is not None] += 1
        return status, graph

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attack_mod, "_fold_and_merge", checked)
        result = run()
    return result, seen


@given(**random_attack_args)
@settings(max_examples=100, deadline=None)
def test_merged_first_replay_matches_the_fold_first_stage(**args):
    res, seen = checking_stages(lambda: random_attack(**args))
    # one stage call per round, two when the round retried wider
    assert sum(seen.values()) == sum(1 + r.escalations for r in res.rounds)


def test_merged_first_replay_matches_on_bundled_machines_under_noise():
    # gaussian sigma 30 under the CLI's defaults reaches every rejection
    def run():
        for name in ("train4", "dk27"):
            for seed in range(1, 13):
                run_attack(name, seed=seed, goal=0.9, max_rounds=20,
                           noise=NoiseModel.gaussian(30.0))

    _, seen = checking_stages(run)
    for kind in (("merge-rejected", True), ("replay-rejected", True),
                 ("replay-rejected", False), ("merged", True)):
        assert seen[kind] > 0, kind


# ------------------------------------------------- full-rescan reference


def full_rescan_challenge(acc, challenger, refused, traces):
    """:func:`_challenge` on MooreFsm graphs: a pooled merge rebuilds the
    challenger, and a takeover replays every trace from reset."""
    if challenger is None:
        challenger = refused
    else:
        try:
            challenger = merge_rounds(challenger, refused)
        except StgConflictError:
            challenger = refused
    acc_count = transition_count(acc) if acc is not None else 0
    if transition_count(challenger) > acc_count and replay_consistency(
        challenger, traces
    ).consistent:
        return challenger, None
    return None, challenger


def full_rescan_attack(device, cfg, seen):
    """The attack with every round rescanning the attack so far.

    The state guess runs the batch output-grouping check over every walk,
    each merge rebuilds the accumulated MooreFsm with ``merge_rounds``, and
    every trace is replayed from reset (:func:`fold_first_and_merge`).
    ``seen`` counts the (status, graph handed on) kinds of the stage calls
    as :func:`checking_stages` does, and ``"takeover"`` per challenger
    takeover.  Returns the recovered graph and the round records.
    """
    n_vectors = attack_mod._validate(cfg, device)
    master = random.Random(cfg.seed)
    acc = challenger = None
    records = []
    for round_no in range(cfg.max_rounds):
        round_seed = master.getrandbits(32)
        stimulus = gen_stimulus(n_vectors, device.input_bits, round_seed)
        traces = [r.trace for r in records]
        traces.append(run_trace(device, stimulus, seed=round_seed))
        trace = traces[-1]
        classes = recovery.merge_hypothesis(trace, traces[:-1])
        fit = code_width(max(classes) + 1)
        attempts = []
        for escalations, width_start in enumerate((None, fit)):
            found = recover_encodings(
                trace, width_start=width_start, timeout_ms=cfg.timeout_ms,
                classes=classes,
            )
            attempts += found.attempts
            assignment = found.assignment
            status, graph, refused = fold_first_and_merge(
                cfg, traces, assignment, acc
            )
            seen[status, graph is not None or refused is not None] += 1
            if (status == "merged" or assignment is None
                    or assignment.width >= fit):
                break
        if refused is not None:
            graph, challenger = full_rescan_challenge(
                acc, challenger, refused, traces
            )
            if graph is not None:
                status = "merged"
                seen["takeover"] += 1
        before = transition_count(acc) if acc is not None else 0
        if graph is not None:
            acc = graph
        after = transition_count(acc) if acc is not None else 0
        fraction = recovery_fraction(
            after, cfg.state_count_guess, device.input_bits
        )
        records.append(attack_mod.RoundRecord(
            round_no, status, 0.0, escalations, trace, assignment,
            tuple(attempts), after - before, fraction,
        ))
        if fraction >= cfg.goal:
            break
    return acc, records


def accounting(records):
    """Round records with their wall times zeroed."""
    def untimed(a):
        if a.stats is None:
            return a
        return dataclasses.replace(
            a, stats=dataclasses.replace(a.stats, elapsed_s=0.0)
        )

    return [
        dataclasses.replace(
            r, solver_ms=0.0, attempts=tuple(map(untimed, r.attempts))
        )
        for r in records
    ]


def assert_matches_full_rescan(make_device, cfg, seen):
    res = attack(make_device(), cfg)
    recovered, records = full_rescan_attack(make_device(), cfg, seen)
    assert accounting(res.rounds) == accounting(records)
    assert res.recovered == recovered


@given(**random_attack_args)
@settings(max_examples=100, deadline=None)
def test_attack_matches_the_full_rescan_reference(**args):
    assert_matches_full_rescan(*random_attack_setup(**args), Counter())


def test_the_full_rescan_comparison_reaches_rejections_and_takeovers():
    # 300 cases of the generator, parameters drawn per case from the
    # ranges of random_attack_args; every kind below is reached by case 59
    seen = Counter()
    for case in range(300):
        rng = random.Random(case)
        args = dict(
            seed=rng.randrange(2**32), n_states=rng.randint(1, 4),
            input_bits=rng.randint(1, 2), output_bits=rng.randint(1, 2),
            kind=rng.choice(["exact", "table3", "gaussian"]),
            vectors=rng.randint(4, 40),
        )
        assert_matches_full_rescan(*random_attack_setup(**args), seen)
    for kind in (("fold-rejected", False), ("merge-rejected", True),
                 ("replay-rejected", True), ("replay-rejected", False),
                 "takeover"):
        assert seen[kind] > 0, kind


@pytest.mark.parametrize(
    "noise",
    [NoiseModel.exact(), NoiseModel.table3(), NoiseModel.gaussian(30.0)],
    ids=["exact", "table3", "gaussian-30"],
)
def test_attack_matches_the_full_rescan_reference_on_bundled_machines(noise):
    seen = Counter()
    for name in SMALL_BENCHMARKS:
        enc = encoded_fixture(name)
        for seed in (1, 2, 3):
            cfg = AttackConfig(
                state_count_guess=enc.machine.state_count, goal=1.0,
                max_rounds=15, seed=seed,
            )
            assert_matches_full_rescan(
                lambda enc=enc, seed=seed: BlackBoxDevice(
                    enc, noise, noise_seed=seed
                ),
                cfg,
                seen,
            )
    assert seen["merged", True] > 0


def test_attack_matches_the_full_rescan_reference_over_56_rounds():
    # s386 under table3 at 420 vectors, goal 1.0, seed 1: the merge graph
    # and the replays' stop points live through 56 rounds
    enc = encoded_fixture("s386")
    cfg = AttackConfig(
        state_count_guess=enc.machine.state_count, vectors_per_round=420,
        goal=1.0, max_rounds=80, seed=1,
    )
    seen = Counter()
    assert_matches_full_rescan(
        lambda: BlackBoxDevice(enc, NoiseModel.table3(), noise_seed=1),
        cfg,
        seen,
    )
    assert seen == Counter({("merged", True): 56})


# ---------------------------------------------------------------- challenger
#
# A one-input toggle: state 0 emits "0", state 1 emits "1", input 1 flips
# the state and input 0 keeps it.


def stg(outputs, delta):
    return MooreFsm(input_bits=1, output_bits=1,
                    states=[f"s{i}" for i in range(len(outputs))], reset=0,
                    delta=dict(delta), outputs=list(outputs))


TOGGLE_WALK = synthetic_trace(["0", "1", "0", "0"], [1, 1, 0],
                              stimulus=[1, 1, 0])


def test_challenger_pools_consistent_refused_graphs():
    acc = MergeGraph(stg(["0", "1"], {(0, 0): 0, (0, 1): 1, (1, 0): 1}))
    won, pool = _challenge(acc, None, stg(["0"], {(0, 0): 0}), [TOGGLE_WALK])
    assert won is None
    won, pool = _challenge(acc, pool, stg(["0", "1"], {(0, 1): 1}),
                           [TOGGLE_WALK])
    assert won is None
    assert pool.machine().outputs == ["0", "1"]
    assert pool.machine().delta == {(0, 0): 0, (0, 1): 1}


def test_challenger_restarts_from_the_new_graph_on_a_clash():
    acc = MergeGraph(stg(["0", "1"], {(0, 0): 0, (0, 1): 1, (1, 0): 1}))
    pool = MergeGraph(stg(["0", "1"], {(0, 1): 1}))
    refused = stg(["0"], {(0, 1): 0})  # input 1 from reset emits "0" here
    won, kept = _challenge(acc, pool, refused, [TOGGLE_WALK])
    assert won is None
    assert kept.machine() is refused


def test_challenger_takes_over_only_when_strictly_larger_and_replaying():
    refused = stg(["0", "1"], {(0, 1): 1, (1, 1): 0})
    # as large as the accumulated graph: no takeover
    same_size = MergeGraph(stg(["0"], {(0, 0): 0, (0, 1): 0}))
    won, kept = _challenge(same_size, None, refused, [TOGGLE_WALK])
    assert won is None and kept.machine() is refused
    # larger, but contradicted by a captured trace: no takeover
    acc = MergeGraph(stg(["0"], {(0, 0): 0}))
    stuck = synthetic_trace(["0", "0"], [1], stimulus=[1])
    won, kept = _challenge(acc, None, refused, [TOGGLE_WALK, stuck])
    assert won is None and kept.machine() is refused
    # larger and replays every trace: the pool takes over and is spent
    won, kept = _challenge(acc, None, refused, [TOGGLE_WALK])
    assert won.machine() is refused and kept is None


def test_pooled_challenger_takes_over_once_it_outgrows_the_graph():
    acc = MergeGraph(stg(["0"], {(0, 0): 0}))
    won, pool = _challenge(acc, None, stg(["0", "1"], {(0, 1): 1}),
                           [TOGGLE_WALK])
    assert won is None  # one transition against one
    won, pool = _challenge(acc, pool, stg(["0", "1"], {(0, 1): 1, (1, 1): 0}),
                           [TOGGLE_WALK])
    assert pool is None
    assert won.machine().delta == {(0, 1): 1, (1, 1): 0}


# ---------------------------------------------------------------- bookkeeping


def test_round_records_carry_their_trace_and_assignment():
    _, _, res = run_attack("lion", max_rounds=3, vectors_per_round=24)
    assert res.rounds_executed > 0
    assert any(rec.status == "merged" for rec in res.rounds)
    for rec in res.rounds:
        assert rec.trace.n_steps == 24
        assert rec.trace.seed == rec.seed
        if rec.status == "merged":
            assert rec.assignment is not None
            assert len(rec.assignment.values) == 25


def test_vector_count_defaults_to_twice_the_transition_total():
    enc, cfg, res = run_attack("lion", max_rounds=1)
    # 4 states * 4 vectors * multiplier 2.0
    assert res.rounds[0].trace.n_steps == 32


def test_total_time_covers_the_rounds():
    _, _, res = run_attack("lion", max_rounds=5)
    assert res.total_ms >= 0.0
    assert res.total_ms >= sum(r.solver_ms for r in res.rounds) * 0.5


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "field, value",
    [
        ("state_count_guess", 0),
        ("goal", 0.0),
        ("goal", 1.5),
        ("max_rounds", -1),
        ("vectors_per_round", 0),
    ],
)
def test_malformed_config_is_rejected(field, value):
    enc = encoded_fixture("lion")
    cfg = AttackConfig(state_count_guess=4)
    setattr(cfg, field, value)
    with pytest.raises(ValueError):
        attack(BlackBoxDevice(enc, NoiseModel.exact(), noise_seed=0), cfg)


# ---------------------------------------------------------------- pinned


# sha256 over the ``--deterministic`` report (target path and Python
# version removed) and the ``--recovered`` KISS2 of every run in a case.
# The exact-small set holds challenger takeovers, fold rejections and width
# escalations; the table3 runs are acceptance criterion 2's.  A change that
# moves any of these moves a recovered machine or a round's accounting.
PINNED_RESULTS = {
    "lion": (
        "4153313f3403e4984ddffa16bc0c2452"
        "0d87251befe7804fdcf6dfba4d8943f3"
    ),
    "train4": (
        "858fae32975020f11e477cbeb8c98e3c"
        "5f856290a69c37d4b0eabeb4df404286"
    ),
    "mc": (
        "d8c6accb1dc02e432ebb191538b2f9ee"
        "0bdad5b34a3492db2757844d71bcacc7"
    ),
    "bbtas": (
        "eedce2d988f1c5bd339c85b787e45ea0"
        "b866e578b532ae6683df8ca160d2de15"
    ),
    "dk27": (
        "9a584cc72160c0ecee7a3cf960d26024"
        "a5869d4b0e0af72621c8c719a44570ad"
    ),
    "shiftreg": (
        "e35617c2263040074961dfdf98a1bf00"
        "3c579252a1b3e17e26295f3249192686"
    ),
    "opus@200": (
        "a6b51d3a16227d55c00d37798f73dede"
        "630d4f54e918045a5dca11d154387d1c"
    ),
    "s386@420": (
        "f0134dfacf320e73b2f9631428cd8b8c"
        "0b1e3b9f185424d1c471945ec7c2f41b"
    ),
}


def _pinned_digest(name, runs):
    """Runs in the working directory, so the report's artifact paths are
    the same relative names wherever the test runs."""
    target = Path(f"{name}.kiss2")
    target.write_text(benchmarks.load(name))
    report = Path("report.json")
    recovered = Path("recovered.kiss2")
    h = hashlib.sha256()
    for args in runs:
        for p in (report, recovered):
            p.unlink(missing_ok=True)
        main(["attack", "--target", str(target), "--deterministic",
              "--report", str(report), "--recovered", str(recovered), *args])
        rep = json.loads(report.read_text())
        del rep["target"]["path"]
        del rep["versions"]["python"]
        h.update(json.dumps(rep, sort_keys=True).encode())
        h.update(recovered.read_bytes() if recovered.exists() else b"-")
    return h.hexdigest()


def test_deterministic_results_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cases = {
        name: [["--goal", "1.0", "--seed", str(s)] for s in range(1, 9)]
        for name in SMALL_BENCHMARKS
    }
    for name, vectors in (("opus", "200"), ("s386", "420")):
        cases[f"{name}@{vectors}"] = [[
            "--noise", "table3", "--goal", "0.9", "--seed", "11",
            "--vectors", vectors, "--rounds-max", "30",
        ]]
    got = {
        case: _pinned_digest(case.split("@")[0], runs)
        for case, runs in cases.items()
    }
    assert got == PINNED_RESULTS


# sha256, as in PINNED_RESULTS, over ``--noise gaussian --sigma 30 --goal
# 1.0`` on the six small machines at seeds 1-3.  These walks are the only
# pinned runs whose phase seed sometimes fails, so they cover the seeded
# solve path, and they pin gaussian currents end to end.
PINNED_GAUSSIAN = (
    "a7b4163b64d3a820abb38c702417870e"
    "073068eac48beec8c64f6028136f667e"
)


def test_gaussian_results_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = []
    real = recovery.build_phases

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(recovery, "build_phases", counting)
    runs = [
        ["--noise", "gaussian", "--sigma", "30", "--goal", "1.0",
         "--seed", str(s)]
        for s in range(1, 4)
    ]
    h = hashlib.sha256()
    for name in SMALL_BENCHMARKS:
        h.update(_pinned_digest(name, runs).encode())
    assert calls, "no phase-seeded solve ran"
    assert h.hexdigest() == PINNED_GAUSSIAN
