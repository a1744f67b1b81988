"""Command-line behavior: exit codes, artifacts, reproducibility."""

import json
import os
from pathlib import Path

import pytest

from fsmrecon import benchmarks, cli, recovery
from fsmrecon.capture import gen_stimulus, run_trace
from fsmrecon.channel import NOISE_KINDS, NoiseModel, pearson
from fsmrecon.cli import main
from fsmrecon.constraints import build_constraints
from fsmrecon.fsm import MooreFsm, parse_kiss2, step


@pytest.fixture
def lion_path(tmp_path):
    p = tmp_path / "lion.kiss2"
    p.write_text(benchmarks.load("lion"))
    return str(p)


@pytest.fixture
def opus_path(tmp_path):
    p = tmp_path / "opus.kiss2"
    p.write_text(benchmarks.load("opus"))
    return str(p)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ convert


def test_convert_expands_mealy_to_moore(lion_path, tmp_path):
    out = tmp_path / "lion_moore.kiss2"
    assert main(["convert", lion_path, str(out)]) == 0
    machine = parse_kiss2(out.read_text())
    assert isinstance(machine, MooreFsm)
    assert machine.is_complete
    assert len(machine.delta) == machine.state_count * 4 == 16


def test_convert_moore_input_round_trips(tmp_path):
    src = tmp_path / "mc.kiss2"
    src.write_text(benchmarks.load("mc"))
    out = tmp_path / "mc_out.kiss2"
    assert main(["convert", str(src), str(out)]) == 0
    a = parse_kiss2(src.read_text())
    b = parse_kiss2(out.read_text())
    assert (a.delta, a.outputs, a.reset) == (b.delta, b.outputs, b.reset)


def test_convert_malformed_file_exits_2_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.kiss2"
    bad.write_text(".i 2\n.o 1\n00 st0\n")
    assert main(["convert", str(bad), str(tmp_path / "out")]) == 2
    assert "line 3" in capsys.readouterr().err


def test_convert_missing_file_exits_2(tmp_path):
    assert main(["convert", str(tmp_path / "nope"), str(tmp_path / "out")]) == 2


def test_convert_unwritable_output_exits_2_with_one_line(
    lion_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert_one_line_exit_2(
        capsys, ["convert", lion_path, UNWRITABLE], "no-such-dir"
    )


def test_convert_incomplete_mealy_table_exits_2_with_one_line(
    tmp_path, capsys
):
    partial = tmp_path / "partial.kiss2"
    # b is entered with two outputs, so the table is Mealy; (b, 1) is absent
    partial.write_text(".i 1\n.o 1\n0 a b 0\n1 a b 1\n0 b a 1\n")
    assert_one_line_exit_2(
        capsys, ["convert", str(partial), str(tmp_path / "out")], "missing"
    )


# ------------------------------------------------------------------- attack


def test_attack_exact_lion_meets_goal(lion_path, tmp_path):
    report= tmp_path / "report.json"
    recovered = tmp_path / "recovered.kiss2"
    code = main([
        "attack", "--target", lion_path, "--noise", "exact",
        "--goal", "1.0", "--seed", "7",
        "--report", str(report), "--recovered", str(recovered),
    ])
    assert code == 0
    rep = read_json(str(report))
    assert rep["result"]["fraction"] == 1.0
    assert rep["result"]["goal_met"] is True
    assert rep["config"]["seed"] == 7
    assert rep["target"]["converted_from_mealy"] is True
    assert all("seed" in r for r in rep["rounds"])
    assert parse_kiss2(recovered.read_text()).input_bits == 2


def test_attack_table3_ten_state_machine(opus_path, tmp_path):
    report = tmp_path / "report.json"
    code = main([
        "attack", "--target", opus_path, "--noise", "table3",
        "--goal", "0.9", "--seed", "11", "--vectors", "200",
        "--report", str(report),
    ])
    assert code == 0
    assert read_json(str(report))["result"]["fraction"] >= 0.9


def test_attack_zero_rounds_exits_3(lion_path, tmp_path, capsys):
    recovered = tmp_path / "recovered.kiss2"
    code = main([
        "attack", "--target", lion_path, "--rounds-max", "0", "--seed", "1",
        "--recovered", str(recovered),
    ])
    assert code == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["fraction"] == 0.0
    assert rep["artifacts"]["recovered"] is None
    assert not recovered.exists()  # nothing recovered, nothing written


@pytest.mark.parametrize("path", ["recovered.kiss2", os.devnull])
def test_attack_that_recovers_nothing_leaves_no_earlier_machine(
    lion_path, tmp_path, monkeypatch, capsys, path
):
    # the first attack writes a machine; a second at the same path that
    # merges no round must not leave it there under a null artifact
    monkeypatch.chdir(tmp_path)
    argv = ["attack", "--target", lion_path, "--seed", "1", "--recovered", path]
    assert main([*argv, "--goal", "1.0"]) == 0
    capsys.readouterr()
    if path != os.devnull:
        assert parse_kiss2(Path(path).read_text()).state_count > 0
    assert main([*argv, "--rounds-max", "0"]) == 3
    assert json.loads(capsys.readouterr().out)["artifacts"]["recovered"] is None
    if path == os.devnull:
        assert Path(path).is_char_device()  # emptied, never unlinked
    else:
        assert Path(path).read_text() == ""


def test_attack_goal_missed_still_writes_partial_report(tmp_path):
    target = tmp_path / "s386.kiss2"
    target.write_text(benchmarks.load("s386"))
    report = tmp_path / "report.json"
    code = main([
        "attack", "--target", str(target), "--goal", "1.0",
        "--rounds-max", "1", "--vectors", "60", "--seed", "3",
        "--report", str(report),
    ])
    assert code == 3
    rep = read_json(str(report))
    assert 0.0 < rep["result"]["fraction"] < 1.0
    assert rep["result"]["goal_met"] is False
    assert len(rep["rounds"]) == 1


def test_attack_bare_defaults_on_s386_exits_0(tmp_path, monkeypatch, capsys):
    """The auto vector count has no cap; s386 gets 3,328-vector rounds."""
    from fsmrecon import recovery

    built = []

    def recording(trace, width):
        cs = build_constraints(trace, width)
        built.append((trace.n_steps, len(cs.windows), len(cs.groups)))
        return cs

    monkeypatch.setattr(recovery, "build_constraints", recording)
    target = tmp_path / "s386"
    target.write_text(benchmarks.load("s386"))
    assert main(["attack", "--target", str(target), "--seed", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["config"]["vectors_per_round"] == 3328
    assert rep["result"]["goal_met"] is True
    assert built and all(n_steps == 3328 for n_steps, _, _ in built)
    # the set is linear: one window per step, one group id per position
    assert all(
        n_chain == n_steps and n_groups == n_steps + 1
        for n_steps, n_chain, n_groups in built
    )


@pytest.mark.parametrize("cmd", ["convert", "verify", "attack"])
def test_table_past_the_expansion_bound_exits_2_with_one_line(
    tmp_path, capsys, cmd
):
    wide = str(tmp_path / "wide.kiss2")
    with open(wide, "w") as fh:
        fh.write(".i 40\n.o 1\n" + "-" * 40 + " a a 1\n")
    argv = {
        "convert": [wide, str(tmp_path / "out.kiss2")],
        "verify": [wide, wide],
        "attack": ["--target", wide],
    }[cmd]
    assert_one_line_exit_2(capsys, [cmd, *argv], "expands past")


def test_attack_malformed_target_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.kiss2"
    bad.write_text("garbage here\n")
    assert main(["attack", "--target", str(bad)]) == 2
    assert "attack:" in capsys.readouterr().err


def test_state_seen_only_as_a_target_is_numbered_last_and_refused(
    tmp_path, capsys
):
    # c is named before b, but only ever in the next-state column
    target = tmp_path / "partial.kiss2"
    target.write_text(".i 1\n.o 1\n0 a c 0\n1 a b 0\n0 b a 0\n1 b b 0\n")
    assert parse_kiss2(target.read_text()).states == ["a", "b", "c"]
    assert_one_line_exit_2(capsys, ["attack", "--target", str(target)], "missing")


def assert_one_line_exit_2(capsys, argv, word):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"{argv[0]}:") and word in out.err
    assert out.err.count("\n") == 1


# an integer flag value of 401 digits, past the range of a float
HUGE = "1" + "0" * 400

# paths under a directory that does not exist cannot be written
UNWRITABLE = "no-such-dir/out"
PATH_FLAGS = ("--report", "--recovered", "--dimacs-dump")


@pytest.mark.parametrize(
    "flag, value, word",
    [("--sigma", "-1", "sigma"), ("--sigma", "inf", "sigma"),
     ("--sigma", "nan", "sigma"),
     # finite, but a reading at this sigma could overflow to inf
     ("--sigma", "1e308", "sigma must be in [0, 1e+100]"),
     ("--timeout-ms", "-5", "timeout"),
     ("--timeout-ms", "0", "timeout"),
     # past the range of a float, as the solver's clock counts seconds
     pytest.param("--timeout-ms", HUGE, "timeout must be in [1, 1.8e+308] ms",
                  id="--timeout-ms-HUGE"),
     # counts that would build their stimulus for hours, or overflow
     ("--vectors", "1000000000", "vectors per round must be <= 1048576"),
     pytest.param("--vectors", HUGE, "<= 1048576, got 1.00e+400",
                  id="--vectors-HUGE"),
     # the later --seed wins over the test's --seed 1
     ("--seed", "-1", "seed must be >= 0"),
     ("--report", UNWRITABLE, "no-such-dir"),
     ("--recovered", UNWRITABLE, "no-such-dir"),
     ("--dimacs-dump", UNWRITABLE, "no-such-dir"),
     # a directory where a file goes, and a file where a directory goes
     ("--report", ".", "directory"),
     ("--recovered", ".", "directory"),
     ("--dimacs-dump", "lion.kiss2", "directory")],
)
def test_attack_unusable_flag_exits_2_with_one_line(
    lion_path, tmp_path, monkeypatch, capsys, flag, value, word
):
    from fsmrecon import cli

    monkeypatch.chdir(tmp_path)
    calls = []

    def recording_attack(device, cfg):
        calls.append(cfg)
        return real_attack(device, cfg)

    real_attack = cli.attack
    monkeypatch.setattr(cli, "attack", recording_attack)
    assert_one_line_exit_2(
        capsys, ["attack", "--target", lion_path, "--seed", "1", flag, value],
        word,
    )
    if flag in PATH_FLAGS:
        # an unusable output path stops the attack before it starts
        assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lion.kiss2"]


@pytest.mark.parametrize(
    "argv",
    [["attack", "--target", "lion.kiss2", "--multiplier", "2"],
     ["convert", "lion.kiss2", "out.kiss2", "--strategy", "first"]],
    ids=["attack--multiplier", "convert--strategy"],
)
def test_removed_flags_are_refused(lion_path, tmp_path, monkeypatch, argv):
    # a round is 2 * X * 2**I vectors unless --vectors says otherwise, and
    # a Mealy state takes the output of its least incoming edge
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not (tmp_path / "out.kiss2").exists()


@pytest.mark.parametrize("report, recovered", [("same", "same"),
                                               ("./same", "same")])
def test_attack_refuses_one_path_for_report_and_machine(
    lion_path, tmp_path, monkeypatch, capsys, report, recovered
):
    from fsmrecon import cli

    def no_attack(device, cfg):
        pytest.fail("the attack ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "attack", no_attack)
    argv = ["attack", "--target", lion_path, "--seed", "1",
            "--report", report, "--recovered", recovered]
    assert_one_line_exit_2(capsys, argv, "--report and --recovered")
    assert not (tmp_path / "same").exists()


@pytest.mark.parametrize("flag", ["--report", "--recovered"])
@pytest.mark.parametrize("name", ["lion.kiss2", "./lion.kiss2", "link.kiss2"])
def test_attack_refuses_to_overwrite_its_target(
    lion_path, tmp_path, monkeypatch, capsys, flag, name
):
    from fsmrecon import cli

    def no_attack(device, cfg):
        pytest.fail("the attack ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "attack", no_attack)
    os.link(lion_path, "link.kiss2")  # a hard link is the target too
    before = Path(lion_path).read_bytes()
    argv = ["attack", "--target", lion_path, "--seed", "1", flag, name]
    assert_one_line_exit_2(capsys, argv, f"{flag} names the target")
    assert Path(lion_path).read_bytes() == before


def test_attack_may_send_report_and_machine_to_dev_null(lion_path, capsys):
    argv = ["attack", "--target", lion_path, "--seed", "1", "--goal", "1.0",
            "--report", os.devnull, "--recovered", os.devnull]
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")


def test_attack_model_violation_keeps_its_traceback(lion_path, monkeypatch):
    from fsmrecon import cli
    from fsmrecon.recovery import ModelViolationError

    def violating(device, cfg):
        raise ModelViolationError("model at width 2 breaks positions (0, 1)")

    monkeypatch.setattr(cli, "attack", violating)
    with pytest.raises(ModelViolationError):
        main(["attack", "--target", lion_path, "--seed", "1"])


def test_a_model_the_checker_refuses_is_not_an_input_error(
    tmp_path, monkeypatch
):
    # shiftreg at seed 1 reaches the solver; a flipped model bit must
    # surface as the checker's error, not as exit 2
    decode = recovery.decode_positions

    def corrupted(cnf, model):
        values = decode(cnf, model)
        values[0] ^= 1
        return values

    monkeypatch.setattr(recovery, "decode_positions", corrupted)
    target = tmp_path / "shiftreg.kiss2"
    target.write_text(benchmarks.load("shiftreg"))
    with pytest.raises(recovery.ModelViolationError):
        main(["attack", "--target", str(target), "--seed", "1"])


def test_calibrate_negative_sigma_exits_2_with_one_line(capsys):
    assert_one_line_exit_2(capsys, ["calibrate", "--sigma", "-1"], "sigma")


def test_calibrate_unwritable_report_exits_2_with_one_line(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert_one_line_exit_2(
        capsys, ["calibrate", "--seed", "1", "--report", UNWRITABLE],
        "no-such-dir",
    )


def test_attack_defaults_echo_effective_vector_count(lion_path, capsys):
    code = main([
        "attack", "--target", lion_path, "--seed", "1", "--goal", "1.0",
    ])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    # lion keeps its 4 states through conversion: 2 * 4 * 2**2
    assert rep["config"]["vectors_per_round"] == 32
    assert rep["config"]["state_count_guess"] == 4


def test_attack_report_is_reproducible_from_its_own_echo(
    opus_path, tmp_path
):
    first = tmp_path / "a.json"
    main([
        "attack", "--target", opus_path, "--noise", "table3",
        "--goal", "0.9", "--seed", "23", "--vectors", "150",
        "--deterministic", "--report", str(first),
    ])
    echo = read_json(str(first))["config"]
    second = tmp_path / "b.json"
    main([
        "attack", "--target", opus_path,
        "--noise", echo["noise"],
        "--goal", str(echo["goal"]),
        "--seed", str(echo["seed"]),
        "--vectors", str(echo["vectors_per_round"]),
        "--deterministic", "--report", str(second),
    ])
    a = read_json(str(first))
    b = read_json(str(second))
    assert a["rounds"] == b["rounds"]
    assert a["result"] == b["result"]


def test_deterministic_runs_are_byte_identical(lion_path, tmp_path):
    report = tmp_path / "rep.json"
    recovered = tmp_path / "rec.kiss2"
    args = [
        "attack", "--target", lion_path, "--noise", "table3",
        "--goal", "1.0", "--seed", "5", "--deterministic",
        "--report", str(report), "--recovered", str(recovered),
    ]
    main(args)
    snap = (report.read_bytes(), recovered.read_bytes())
    # main parses with one parser per process: commands in between, and
    # the same attack with its timings left in, leave nothing behind
    assert main(["verify", str(recovered), lion_path]) == 0
    timed = [a for a in args if a != "--deterministic"]
    timed[timed.index(str(report))] = str(tmp_path / "timed.json")
    main(timed)
    main(args)
    assert (report.read_bytes(), recovered.read_bytes()) == snap
    assert cli.build_parser() is not cli.build_parser()


def test_deterministic_zeroes_every_timing_field(lion_path, capsys):
    main([
        "attack", "--target", lion_path, "--seed", "2", "--goal", "1.0",
        "--deterministic",
    ])
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["total_ms"] == 0.0
    assert all(r["solver_ms"] == 0.0 for r in rep["rounds"])


def test_unseeded_attack_echoes_a_seed(lion_path, capsys):
    main(["attack", "--target", lion_path, "--goal", "1.0"])
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep["config"]["seed"], int)


# ------------------------------------------------------------------- verify


def test_verify_identity_exits_0(lion_path, tmp_path, capsys):
    assert main(["verify", lion_path, lion_path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["equivalent"] is True and rep["coverage"] == "full"


def test_verify_fault_injected_copy_exits_1_with_counterexample(
    lion_path, tmp_path, capsys
):
    bad = tmp_path / "bad.kiss2"
    bad.write_text(
        benchmarks.load("lion").replace("00 st2 st1 1", "00 st2 st3 1")
    )
    assert main(["verify", str(bad), lion_path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["equivalent"] is False
    assert rep["counterexample"]  # a concrete driving sequence


def test_verify_arity_mismatch_exits_2(lion_path, tmp_path, capsys):
    other = tmp_path / "mc.kiss2"
    other.write_text(benchmarks.load("mc"))
    assert main(["verify", lion_path, str(other)]) == 2
    assert "verify:" in capsys.readouterr().err


def test_verify_partial_candidate_needs_the_partial_flag(
    lion_path, tmp_path, capsys
):
    # drop one row from the Moore expansion of lion
    out = tmp_path / "moore.kiss2"
    main(["convert", lion_path, str(out)])
    lines = out.read_text().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith(".")]
    partial = tmp_path / "partial.kiss2"
    partial.write_text(
        "\n".join(ln for ln in lines if ln != body[-1]) + "\n"
    )
    assert main(["verify", str(partial), lion_path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["equivalent"] is True and rep["coverage"] == "partial"
    assert main(["verify", str(partial), lion_path, "--partial"]) == 0


# ---------------------------------------------------------------- calibrate


def test_calibrate_gaussian_sigma10_correlates(capsys):
    assert main([
        "calibrate", "--samples", "1000", "--sigma", "10", "--seed", "5",
    ]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pearson_r"] >= 0.93
    assert rep["nonzero_samples"] + rep["hd0_samples"] == 1000


def test_calibrate_sigma_zero_is_nearly_perfect(capsys):
    assert main([
        "calibrate", "--samples", "1000", "--sigma", "0", "--seed", "5",
    ]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pearson_r"] >= 0.99


def test_calibrate_table3_histogram_matches_the_error_budget(capsys):
    assert main([
        "calibrate", "--samples", "8000", "--noise", "table3", "--seed", "5",
    ]) == 0
    rep = json.loads(capsys.readouterr().out)
    hist = rep["error_histogram_pct"]
    assert abs(hist["exact"] - 85.2) <= 3.0
    assert abs(hist["plus_one"] - 12.0) <= 3.0
    assert abs(hist["minus_one"] - 2.8) <= 3.0
    assert hist["other"] == 0.0
    assert rep["hd0_exact"] == rep["hd0_samples"] > 0


def test_calibrate_rejects_tiny_sample_counts(capsys):
    assert main(["calibrate", "--samples", "99"]) == 2
    assert "100" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, word",
    [(["--samples", "1048577"], "at most 1048576"),
     (["--report", UNWRITABLE], "no-such-dir"),
     (["--seed", "-1"], "seed must be >= 0"),
     # pearson would overflow squaring a reading at this sigma
     (["--noise", "gaussian", "--sigma", "1e200"], "sigma must be in [0, 1e+100]")],
    ids=["past-the-round-ceiling", "unwritable-report", "negative-seed",
         "huge-sigma"],
)
def test_calibrate_refuses_before_it_samples(
    tmp_path, monkeypatch, capsys, argv, word
):
    # a sample count past an attack round's ceiling would build one list
    # until memory gave out; neither refusal may wait for the stimulus
    def unreachable(*args):
        raise AssertionError("calibrate sampled before refusing")

    monkeypatch.setattr(cli, "gen_stimulus", unreachable)
    monkeypatch.chdir(tmp_path)
    assert_one_line_exit_2(capsys, ["calibrate", "--seed", "1", *argv], word)


def two_walk_calibration(samples, seed, noise):
    """calibrate's measures as two walks give them: the device's capture,
    then ``fsm.step`` over the same stimulus for each true distance."""
    device = cli._calibration_device(seed, noise)
    stimulus = gen_stimulus(samples, cli._CAL_INPUT_BITS, seed)
    trace = run_trace(device, stimulus, seed)
    encoded = device._encoded
    hds, state = [], encoded.machine.reset
    for vector in stimulus:
        res = step(encoded, state, vector)
        hds.append(res.hd)
        state = res.next_state
    nonzero = [(hd, inf) for hd, inf in zip(hds, trace.inferred) if hd > 0]
    zero = [inf for hd, inf in zip(hds, trace.inferred) if hd == 0]
    hist = {"exact": 0, "minus_one": 0, "plus_one": 0, "other": 0}
    for hd, inf in nonzero:
        err = inf.center - hd
        if err == 0:
            hist["exact"] += 1
        elif err == 1:
            hist["plus_one"] += 1
        elif err == -1:
            hist["minus_one"] += 1
        else:
            hist["other"] += 1
    return {
        "error_histogram_pct": {
            k: 100.0 * v / len(nonzero) if nonzero else 0.0
            for k, v in hist.items()
        },
        "hd0_exact": sum(1 for inf in zero if inf.center == 0),
        "hd0_samples": len(zero),
        "nonzero_samples": len(nonzero),
        "pearson_r": pearson(hds, trace.currents),
        "width": encoded.width,
    }


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_calibrate_matches_a_two_walk_reference(capsys, kind, seed):
    # calibrate reads each step's true distance off the capture's outputs,
    # which holds only while every state emits its own register code
    encoded = cli._calibration_device(seed, NoiseModel(kind))._encoded
    assert [int(out, 2) for out in encoded.machine.outputs] == encoded.encodings
    assert main([
        "calibrate", "--samples", "2000", "--noise", kind,
        "--seed", str(seed), "--deterministic",
    ]) == 0
    rep = json.loads(capsys.readouterr().out)
    rep["width"] = rep["machine"]["width"]
    want = two_walk_calibration(2000, seed, NoiseModel(kind))
    assert {k: rep[k] for k in want} == want


def test_calibrate_unseeded_still_reports_seed(capsys):
    assert main(["calibrate", "--samples", "200"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep["config"]["seed"], int)


# ----------------------------------------------------------------- plumbing


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_dimacs_dump_writes_round_files(tmp_path, monkeypatch):
    # shiftreg at seed 1 solves width 2 with the solver; every lion width
    # at seed 1 is answered by its seed, which runs no solver and dumps
    # nothing
    solves = []

    class CountingSolver(recovery.CdclSolver):
        def __init__(self, *args, **kwargs):
            solves.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(recovery, "CdclSolver", CountingSolver)
    target = tmp_path / "shiftreg.kiss2"
    target.write_text(benchmarks.load("shiftreg"))
    dump = tmp_path / "cnf"
    dump.mkdir()
    main([
        "attack", "--target", str(target), "--goal", "1.0", "--seed", "1",
        "--dimacs-dump", str(dump),
    ])
    files = sorted(dump.glob("*.cnf"))
    assert files, "expected DIMACS artifacts"
    assert len(files) == len(solves)  # one CNF per solver call
    assert sorted(p.stem for p in dump.glob("*.vars")) == [
        p.stem for p in files
    ]
    for path in files:
        head = path.read_text().splitlines()[0]
        assert head.startswith("p cnf ")
