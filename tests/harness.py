"""Helpers shared by the tests: fault injection, a local tree in the
place of a served one, reading a path back from the wire, and a
four-pass threshold search to check the one-pass search against."""

from __future__ import annotations

import math

import numpy as np

from vtrain import game, merkle
from vtrain import protocol as pr
from vtrain.fpround import exponent_scale_array, rnd_array
from vtrain.roundlog import LogWriter
from vtrain.simnet import PROFILES, get_profile


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


def four_pass_threshold_search(cfg) -> tuple[dict[str, float], dict[str, int]]:
    """``protocol.threshold_search`` as whole runs, and the straddles each
    comparison run counts, by profile name.

    A reference run on the trainer's profile rounds like the negative
    control and keeps every raw logged tensor. A comparison run on each
    registered profile other than the trainer's (profiles are equal by
    order) passes on the reference's rounded tensors, in the reference's
    order, and records the reference's distance at each straddle. Its
    memory grows with the run.
    """
    b_r, raw = cfg.b_r, []

    def reference(values, slot, stage):
        raw.append(values)
        return rnd_array(values, b_r), 0

    trainer = get_profile(cfg.trainer_profile)
    pr._run(cfg, trainer, reference, False)
    distances = {s.key: [] for s in cfg.log_slots()}
    straddles = {}

    def comparison(values, slot, stage):
        y1 = next(seen)
        r1, r2 = rnd_array(y1, b_r), rnd_array(values, b_r)
        straddle = (r1 != r2) & (((y1 > r1) & (values < r2)) | ((y1 < r1) & (values > r2)))
        y, r = y1[straddle], r1[straddle]
        distances[slot.key].append(np.abs(y - r) / exponent_scale_array(y))
        return r1, y.size

    for name, profile in PROFILES.items():
        if profile != trainer:
            seen = iter(raw)
            run, _ = pr._run(cfg, profile, comparison, False)
            straddles[name] = sum(map(sum, run.per_step))
    table = {key: pr.search_tau(min(np.concatenate(found).tolist(), default=math.inf), b_r)
             for key, found in distances.items()}
    return table, straddles
