"""Helpers shared by the tests: fault injection, a local tree in the
place of a served one, and reading a path back from the wire."""

from __future__ import annotations

import numpy as np

from vtrain import game, merkle
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
    slots = cfg.log_slots()
    per_step = sum(s.entries for s in slots)
    k = next(i for i, s in enumerate(slots) if s.key.startswith("loss:"))
    lo = sum(s.entries for s in slots[:k])
    hi = lo + slots[k].entries
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


def children_fetch(tree: merkle.MerkleTree):
    """A ``merkle.bisect`` fetch answered from a local tree, as a server would."""

    def fetch(level: int, index: int) -> tuple[bytes, bytes]:
        return merkle.node(tree, level - 1, 2 * index), merkle.node(tree, level - 1, 2 * index + 1)

    return fetch


def two_child_levels(tree: merkle.MerkleTree, leaf_index: int) -> int:
    """Levels whose node on the leaf's path has two children: the requests
    a bisection to that leaf makes, one per level."""
    return sum(2 * (leaf_index >> level) + 1 < len(tree.levels[level - 1]) // merkle.DIGEST_LEN
               for level in range(1, len(tree.levels)))


def path_from_wire(obj: dict) -> merkle.MerklePath:
    """A path as a ``verdict_claim`` or a report carries it."""
    return merkle.MerklePath(
        leaf_index=int(obj["leaf_index"]),
        leaf=game._digest(obj["leaf"], "leaf"),
        siblings=[None if d is None else game._digest(d, "sibling") for d in obj["siblings"]],
    )
