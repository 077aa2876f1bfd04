"""Replayable reduced-precision training with an auditable rounding log.

A trainer runs SGD with every intermediate tensor rounded onto a reduced
FP32 grid and every rounding decision recorded in a compact ternary log.
An auditor replays the run on a different accumulation order, consuming
the log to stay bit-exact, and both sides commit to weight checkpoints in
a SHA-256 Merkle tree. Disagreements are localized to a single checkpoint
through an interactive bisection game over a socket.

The exports load on first access (PEP 562), so a process that only
serves, disputes or judges never imports numpy or the replay engine:
``from vtrain import challenge`` loads ``game`` and ``merkle`` alone.
"""

import importlib

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    "DOWN": "fpround",
    "IGNORE": "fpround",
    "UP": "fpround",
    "DeviceProfile": "simnet",
    "PROFILES": "simnet",
    "Rng": "simnet",
    "get_profile": "simnet",
    "TrainConfig": "protocol",
    "RunOutput": "protocol",
    "TrainOutput": "protocol",
    "train": "protocol",
    "audit": "protocol",
    "audit_without_corrections": "protocol",
    "estimate_log_entries": "protocol",
    "threshold_search": "protocol",
    "MerkleTree": "merkle",
    "MerklePath": "merkle",
    "build": "merkle",
    "hash_weights": "merkle",
    "VerdictReport": "game",
    "challenge": "game",
    "judge_check": "game",
    "listen": "game",
    "serve": "game",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # an unknown name raises, so ``from vtrain import cli`` imports the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
