"""Command-line interface: convert, attack, verify, calibrate.

Every command is reproducible: randomized quantities always come from an
explicit or echoed seed, and reports carry enough of the configuration to
re-run the same pipeline bit-identically.  Exit codes are stable — 0 for
success (attack: goal reached; verify: machines proven equivalent), 1 for a
verified behavioral difference, 2 for unusable input (malformed files,
arity mismatches, bad flag values), 3 for an attack that finished without
reaching its goal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import secrets
import sys
import tempfile
import time

from . import __version__
from .attack import AttackConfig, attack
from .capture import BlackBoxDevice, choose_vector_count, gen_stimulus, run_trace
from .channel import NoiseModel, pearson
from .fsm import (
    MealyFsm,
    MooreFsm,
    assign_binary_encoding,
    int_to_bits,
    moorify,
    parse_kiss2,
    serialize_kiss2,
    step,
    transition_count,
)

EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_INPUT = 2
EXIT_GOAL_MISSED = 3

# the synthetic device cmd_calibrate samples: dense state codes give the
# register walk a full spread of switching distances, and a self-loop bias
# keeps zero-distance steps frequent enough to measure
_CAL_STATES = 64
_CAL_INPUT_BITS = 2
_CAL_SELF_LOOP_BIAS = 0.1


def _load_moore(path: str, strategy: str = "first") -> tuple[MooreFsm, bool]:
    """Parse a KISS2 file, Moore-converting Mealy tables on the way in."""
    with open(path, "r", encoding="utf-8") as fh:
        machine = parse_kiss2(fh.read())
    if isinstance(machine, MealyFsm):
        return moorify(machine, strategy), True
    return machine, False


def _require_writable(files: list[str | None], directory: str | None) -> None:
    """Raise OSError now for an output path the command could not write later.

    A file that does not exist yet is created and removed again, so a
    check leaves nothing behind; an existing one is opened for append and
    left as it was.
    """
    for path in files:
        if path is None:
            continue
        existed = os.path.exists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)
    if directory is not None:
        with tempfile.NamedTemporaryFile(dir=directory):
            pass


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ------------------------------------------------------------------ convert


def cmd_convert(args: argparse.Namespace) -> int:
    machine, _ = _load_moore(args.infile, args.strategy)
    with open(args.outfile, "w", encoding="utf-8") as fh:
        fh.write(serialize_kiss2(machine))
    return EXIT_OK


# ------------------------------------------------------------------- attack


def cmd_attack(args: argparse.Namespace) -> int:
    noise = NoiseModel(kind=args.noise, sigma=args.sigma)
    machine, converted = _load_moore(args.target)
    machine.require_complete()
    # checked even when --vectors overrides it: the report echoes it
    vectors = choose_vector_count(
        machine.state_count, machine.input_bits, args.multiplier
    )
    if args.vectors is not None:
        vectors = args.vectors
    # an attack can run for minutes; an unusable output path must stop it
    # before it starts, not throw its result away at the end
    _require_writable([args.report, args.recovered], args.dimacs_dump)
    encoded = assign_binary_encoding(machine)
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    cfg = AttackConfig(
        state_count_guess=machine.state_count,
        vectors_per_round=vectors,
        goal=args.goal,
        max_rounds=args.rounds_max,
        seed=seed,
        timeout_ms=args.timeout_ms,
        dimacs_dir=args.dimacs_dump,
    )
    result = attack(BlackBoxDevice(encoded, noise, noise_seed=seed), cfg)

    if args.recovered is not None and result.recovered is not None:
        with open(args.recovered, "w", encoding="utf-8") as fh:
            fh.write(serialize_kiss2(result.recovered))

    report = {
        "command": "attack",
        "config": {
            "goal": cfg.goal,
            "input_bits": machine.input_bits,
            "max_rounds": cfg.max_rounds,
            "multiplier": args.multiplier,
            "noise": args.noise,
            "seed": seed,
            "sigma": args.sigma,
            "state_count_guess": cfg.state_count_guess,
            "timeout_ms": cfg.timeout_ms,
            "vectors_per_round": vectors,
        },
        "target": {
            "converted_from_mealy": converted,
            "input_bits": machine.input_bits,
            "output_bits": machine.output_bits,
            "path": args.target,
            "states": machine.state_count,
        },
        "rounds": [
            {
                "escalations": r.escalations,
                "fraction": r.fraction,
                "new_transitions": r.new_transitions,
                "round": r.round_no,
                "seed": r.seed,
                "solver_ms": 0.0 if args.deterministic else r.solver_ms,
                "status": r.status,
                "width": r.width,
            }
            for r in result.rounds
        ],
        "result": {
            "fraction": result.fraction,
            "goal_met": result.goal_met,
            "rounds_executed": result.rounds_executed,
            "states": (
                result.recovered.state_count if result.recovered else 0
            ),
            "total_ms": 0.0 if args.deterministic else result.total_ms,
            "transitions": (
                transition_count(result.recovered) if result.recovered else 0
            ),
        },
        "artifacts": {
            "dimacs_dir": args.dimacs_dump,
            "recovered": (
                args.recovered if result.recovered is not None else None
            ),
            "report": args.report,
        },
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
        },
    }
    _emit(report, args.report)
    return EXIT_OK if result.goal_met else EXIT_GOAL_MISSED


# ------------------------------------------------------------------- verify


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import equivalent

    candidate, _ = _load_moore(args.candidate)
    reference, _ = _load_moore(args.reference)
    verdict = equivalent(candidate, reference)
    proven = verdict.equivalent and (
        verdict.coverage == "full" or args.partial
    )
    counterexample = None
    if verdict.counterexample is not None:
        counterexample = [
            int_to_bits(v, candidate.input_bits)
            for v in verdict.counterexample
        ]
    _emit(
        {
            "command": "verify",
            "candidate": args.candidate,
            "counterexample": counterexample,
            "coverage": verdict.coverage,
            "equivalent": verdict.equivalent,
            "partial_accepted": bool(args.partial),
            "proven": proven,
            "reference": args.reference,
            "skipped_edges": verdict.skipped_edges,
        },
        None,
    )
    return EXIT_OK if proven else EXIT_DIFFERENT


# ---------------------------------------------------------------- calibrate


def _calibration_device(seed: int, noise: NoiseModel) -> tuple:
    """A random complete Moore machine with dense state codes, plus device."""
    import random as _random

    rng = _random.Random(seed)
    n = _CAL_STATES
    vecs = 1 << _CAL_INPUT_BITS
    delta = {}
    for s in range(n):
        for v in range(vecs):
            if rng.random() < _CAL_SELF_LOOP_BIAS:
                delta[(s, v)] = s
            else:
                delta[(s, v)] = rng.randrange(n)
    width = n.bit_length() - 1  # n is a power of two
    machine = MooreFsm(
        input_bits=_CAL_INPUT_BITS,
        output_bits=width,
        states=[f"s{i}" for i in range(n)],
        reset=0,
        delta=delta,
        outputs=[int_to_bits(i, width) for i in range(n)],
    )
    encoded = assign_binary_encoding(machine)
    return encoded, BlackBoxDevice(encoded, noise, noise_seed=seed)


def cmd_calibrate(args: argparse.Namespace) -> int:
    if args.samples < 100:
        raise ValueError(f"need at least 100 samples, got {args.samples}")
    noise = NoiseModel(kind=args.noise, sigma=args.sigma)
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    t0 = time.perf_counter()
    encoded, device = _calibration_device(seed, noise)
    stimulus = gen_stimulus(args.samples, _CAL_INPUT_BITS, seed)
    trace = run_trace(device, stimulus, seed)

    hds = []
    state = encoded.machine.reset
    for vector in stimulus:
        res = step(encoded, state, vector)
        hds.append(res.hd)
        state = res.next_state

    r = pearson(hds, trace.currents)
    nonzero = [
        (hd, inf) for hd, inf in zip(hds, trace.inferred) if hd > 0
    ]
    zero = [inf for hd, inf in zip(hds, trace.inferred) if hd == 0]
    buckets = {"exact": 0, "minus_one": 0, "plus_one": 0, "other": 0}
    for hd, inf in nonzero:
        err = inf.center - hd
        if err == 0:
            buckets["exact"] += 1
        elif err == 1:
            buckets["plus_one"] += 1
        elif err == -1:
            buckets["minus_one"] += 1
        else:
            buckets["other"] += 1
    pct = {
        k: (100.0 * v / len(nonzero) if nonzero else 0.0)
        for k, v in buckets.items()
    }
    hd0_exact = sum(1 for inf in zero if inf.center == 0)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = {
        "command": "calibrate",
        "config": {
            "noise": args.noise,
            "samples": args.samples,
            "seed": seed,
            "sigma": args.sigma,
        },
        "machine": {
            "input_bits": _CAL_INPUT_BITS,
            "self_loop_bias": _CAL_SELF_LOOP_BIAS,
            "states": _CAL_STATES,
            "width": encoded.width,
        },
        "error_histogram_pct": pct,
        "hd0_exact": hd0_exact,
        "hd0_samples": len(zero),
        "nonzero_samples": len(nonzero),
        "pearson_r": r,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
        },
        "wall_ms": 0.0 if args.deterministic else wall_ms,
    }
    _emit(report, args.report)
    return EXIT_OK


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsmrecon",
        description=(
            "Recover Moore state machines from black-box sequential "
            "devices via a power side channel"
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser(
        "convert", help="rewrite a KISS2 table as a Moore-annotated machine"
    )
    p.add_argument("infile")
    p.add_argument("outfile")
    p.add_argument(
        "--strategy",
        choices=("first", "majority"),
        default="first",
        help="output to give a state entered with conflicting Mealy outputs",
    )
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser(
        "attack", help="recover a device's transition graph round by round"
    )
    p.add_argument("--target", required=True, help="KISS2 file to attack")
    p.add_argument("--vectors", type=int, default=None,
                   help="input vectors per round (default 2·X·2^I)")
    p.add_argument("--multiplier", type=float, default=2.0)
    p.add_argument("--rounds-max", type=int, default=20)
    p.add_argument("--goal", type=float, default=0.90,
                   help="stop once this fraction of transitions is recovered")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: fresh entropy, echoed)")
    p.add_argument("--noise", choices=("exact", "table3", "gaussian"),
                   default="exact")
    p.add_argument("--sigma", type=float, default=10.0,
                   help="gaussian channel standard deviation")
    p.add_argument("--timeout-ms", type=int, default=1_000_000)
    p.add_argument("--report", default=None,
                   help="write the JSON report here instead of stdout")
    p.add_argument("--recovered", default=None,
                   help="write the recovered machine here as KISS2")
    p.add_argument("--dimacs-dump", default=None, metavar="DIR",
                   help="dump each round's CNF as DIMACS files")
    p.add_argument("--deterministic", action="store_true",
                   help="zero timing fields so reports compare bytewise")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser(
        "verify", help="check two machines for behavioral equivalence"
    )
    p.add_argument("candidate", help="recovered KISS2 (may be partial)")
    p.add_argument("reference", help="reference KISS2")
    p.add_argument("--partial", action="store_true",
                   help="accept agreement on just the covered transitions")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "calibrate",
        help="measure channel fidelity on a synthetic random device",
    )
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=10.0)
    p.add_argument("--noise", choices=("exact", "table3", "gaussian"),
                   default="gaussian")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(fn=cmd_calibrate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # unusable input: unreadable or unwritable files, malformed
        # machines, bad flag values.  A ModelViolationError is a defect,
        # not an input problem, and keeps its traceback.
        print(f"{args.cmd}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
