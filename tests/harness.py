"""Fault-injection helpers shared by protocol and acceptance tests."""

from __future__ import annotations

import numpy as np

from vtrain import protocol as pr
from vtrain.roundlog import LogWriter


def corrupt_one_entry(cfg, digits: np.ndarray, entry: int, path) -> None:
    """Write a copy of the log with one direction flipped to its opposite."""
    tampered = digits.copy()
    tampered[entry] = 2 - tampered[entry]
    with LogWriter(path, cfg.b_r) as w:
        w.write_array(tampered)


def find_corruptible_entry(cfg, digits: np.ndarray, honest_root: bytes, path,
                           max_tries: int = 60, start_step: int = 1):
    """Find a single directed log entry whose flip changes the audit root.

    Scans the loss-gradient region of successive steps (the entries with
    the most direct weight influence). Returns (entry_index, step) and
    leaves the winning tampered log at ``path``, or None.
    """
    layout = pr.step_layout(cfg)
    per_step = sum(n for _, n in layout)
    k = next(i for i, (slot, _) in enumerate(layout) if slot.startswith("backward:loss:"))
    lo = sum(n for _, n in layout[:k])
    hi = lo + layout[k][1]
    tries = 0
    for step in range(start_step, cfg.steps + 1):
        base = (step - 1) * per_step
        for offset in range(lo, hi):
            entry = base + offset
            if digits[entry] not in (0, 2):
                continue
            tries += 1
            if tries > max_tries:
                return None
            corrupt_one_entry(cfg, digits, entry, path)
            tampered_root = pr.audit(cfg, cfg.trainer_profile, path).root
            if tampered_root != honest_root:
                return entry, step
    return None
