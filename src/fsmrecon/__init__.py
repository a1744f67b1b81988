"""Recover Moore state machines from black-box devices via a power side channel.

The top level re-exports the names most workflows touch; the modules group
the rest:

- ``fsm`` — KISS2 parsing/serialization, Mealy-to-Moore conversion, encodings
- ``channel`` — leakage synthesis, current band edges, Hamming-distance inference
- ``capture`` — black-box device wrapper, stimulus generation, traces
- ``constraints`` — trace-to-constraint translation and the direct checker
- ``cnf`` / ``sat`` — CNF encoding, DIMACS round-trip, the CDCL solver
- ``recovery`` — minimal-width encoding search over one or more traces
- ``congruence`` — union-find with determinism closure, shared by recovery and stg
- ``stg`` — folding traces into partial ``MooreFsm`` graphs, merging rounds
  into one ``MergeGraph`` that replays each trace where it stopped
- ``attack`` — the round loop tying everything together
- ``verify`` — replay consistency, behavioral equivalence, brute-force width
- ``benchmarks`` — bundled KISS2 machines used by the tests and docs
- ``cli`` — the ``fsmrecon`` command-line entry point
"""

from .attack import AttackConfig, AttackResult, attack
from .capture import BlackBoxDevice, Trace, gen_stimulus, run_trace
from .channel import NoiseModel, pearson
from .constraints import ConstraintSet, build_constraints
from .fsm import (
    EncodedFsm,
    Kiss2Error,
    MealyFsm,
    MooreFsm,
    assign_binary_encoding,
    moorify,
    parse_kiss2,
    serialize_kiss2,
)
from .recovery import EncodingAssignment, RecoveryResult, recover_encodings
from .stg import StgConflictError, build_partial_stg, merge_rounds
from .verify import brute_force_min_width, equivalent, replay_consistency

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackResult",
    "BlackBoxDevice",
    "ConstraintSet",
    "EncodedFsm",
    "EncodingAssignment",
    "Kiss2Error",
    "MealyFsm",
    "MooreFsm",
    "NoiseModel",
    "RecoveryResult",
    "StgConflictError",
    "Trace",
    "__version__",
    "assign_binary_encoding",
    "attack",
    "brute_force_min_width",
    "build_constraints",
    "build_partial_stg",
    "equivalent",
    "gen_stimulus",
    "merge_rounds",
    "moorify",
    "parse_kiss2",
    "pearson",
    "recover_encodings",
    "replay_consistency",
    "run_trace",
    "serialize_kiss2",
]
