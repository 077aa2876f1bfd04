"""Replayable reduced-precision training with an auditable rounding log.

A trainer runs SGD with every intermediate tensor rounded onto a reduced
FP32 grid and every rounding decision recorded in a compact ternary log.
An auditor replays the run on a different accumulation order, consuming
the log to stay bit-exact, and both sides commit to weight checkpoints in
a SHA-256 Merkle tree. Disagreements are localized to a single checkpoint
through an interactive bisection game over a socket.
"""

from .fpround import DOWN, IGNORE, UP
from .simnet import DeviceProfile, PROFILES, Rng, get_profile
from .protocol import (
    TrainConfig,
    RunOutput,
    TrainOutput,
    train,
    audit,
    audit_without_corrections,
    estimate_log_entries,
    threshold_search,
)
from .merkle import MerkleTree, MerklePath, build, hash_weights
from .game import VerdictReport, challenge, judge_check, listen, serve

__version__ = "0.1.0"

__all__ = [
    "DOWN",
    "IGNORE",
    "UP",
    "DeviceProfile",
    "PROFILES",
    "Rng",
    "get_profile",
    "TrainConfig",
    "RunOutput",
    "TrainOutput",
    "train",
    "audit",
    "audit_without_corrections",
    "estimate_log_entries",
    "threshold_search",
    "MerkleTree",
    "MerklePath",
    "build",
    "hash_weights",
    "VerdictReport",
    "challenge",
    "judge_check",
    "listen",
    "serve",
    "__version__",
]
