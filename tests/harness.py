"""Helpers shared by the tests: fault injection, a local tree in the
place of a served one, reading a path back from the wire, a four-pass
threshold search to check the one-pass search against, and a bit-string
model of the log format to check the codec against."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from vtrain import game, merkle
from vtrain import protocol as pr
from vtrain.fpround import exponent_scale_array, rnd_array
from vtrain import roundlog
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


def _bytes(bits: str) -> bytes:
    """A bit string, most significant bit first, zero-padded to a byte."""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


@dataclass(frozen=True)
class Block:
    """One log block as the module docstring of ``roundlog`` lays it out,
    its three streams as bit strings, built one entry at a time."""

    n: int
    d: int
    k: int
    u: int
    unary: str
    low: str
    signs: str

    @classmethod
    def of(cls, codes, k: int | None = None) -> Block:
        """The block of ``codes``; ``k`` defaults to the smallest that
        minimises the unary and remainder bytes."""
        codes = [int(c) for c in codes]
        at = [i for i, c in enumerate(codes) if c != 1]
        gaps = [b - a - 1 for a, b in zip([-1] + at, at)]

        def size(k: int) -> int:
            unary = len(gaps) + sum(g >> k for g in gaps)
            return -(-unary // 8) + -(-len(gaps) * k // 8)

        if k is None:
            k = min(range(17), key=size)  # min keeps the first, so the smallest k
        unary = "".join("1" * (g >> k) + "0" for g in gaps)
        low = "".join(format(g % 2**k, f"0{k}b") for g in gaps) if k else ""
        signs = "".join("1" if codes[i] == 2 else "0" for i in at)
        return cls(len(codes), len(at), k, len(unary), unary, low, signs)

    def to_bytes(self, pad: str = "") -> bytes:
        """The block's bytes; ``pad`` names a stream whose padding gets a 1 bit."""
        streams = {"unary": self.unary, "low": self.low, "signs": self.signs}
        if pad:
            assert len(streams[pad]) % 8, f"{pad} stream has no padding"
            streams[pad] += "1"
        return struct.pack("<HBH", self.d, self.k, self.u) + b"".join(
            _bytes(bits) for bits in streams.values())

    def past_the_block(self) -> Block:
        """The block with its gaps as long as its header allows (``k`` at
        least 1): the first quotient takes every unary bit the header
        allows and every remainder is all ones, so with two or more
        directed entries the last lies past the block."""
        k = max(self.k, 1)
        extra = (self.n - self.d) >> k
        return replace(self, k=k, u=self.d + extra, unary="1" * extra + "0" * self.d,
                       low="1" * (self.d * k))


def log_bytes(codes, b_r: int = 32, count: int | None = None) -> bytes:
    """A version-3 log of ``codes`` built from ``Block``; the header claims
    ``count`` entries, by default as many as there are codes."""
    codes = list(codes)
    count = len(codes) if count is None else count
    blocks = (Block.of(codes[i : i + roundlog._BLOCK]).to_bytes()
              for i in range(0, len(codes), roundlog._BLOCK))
    return roundlog.MAGIC + bytes([3, b_r]) + count.to_bytes(8, "little") + b"".join(blocks)


# The ways a log can break the format, each with the message the reader
# refuses it with; ``damaged_log`` makes each from a seeded generator.
DAMAGE = {
    "directed-past-block": "claims",
    "k-above-16": "Rice parameter",
    "unary-zero-count": "unary stream does not end",
    "position-past-block": "past a block",
    "padding": "nonzero padding bits",
    "truncated": "truncated rounding log",
    "trailing": "bytes after the rounding log's payload",
    "version-2": "unsupported log version 2",
}


def _v2_payload(codes) -> bytes:
    """Version 2's base-3 payload: five entries a byte, the last group padded with IGNORE."""
    codes = list(codes) + [1] * (-len(codes) % 5)
    return bytes(sum(c * 3**j for j, c in enumerate(codes[i : i + 5]))
                 for i in range(0, len(codes), 5))


def damaged_log(case: str, codes, rng, b_r: int = 32) -> bytes:
    """The log of ``codes``, damaged the way ``case`` of ``DAMAGE`` names,
    in one block ``rng`` picks. "position-past-block" needs two directed
    entries in every block; "padding", a stream with padding in each."""
    codes = [int(c) for c in codes]
    count = len(codes).to_bytes(8, "little")
    if case == "version-2":
        return roundlog.MAGIC + bytes([2, b_r, 0]) + count + _v2_payload(codes)
    step = roundlog._BLOCK
    blocks = [Block.of(codes[i : i + step]) for i in range(0, len(codes), step)]
    raw = [block.to_bytes() for block in blocks]
    i = int(rng.integers(len(blocks)))
    block = blocks[i]
    if case == "directed-past-block":
        raw[i] = replace(block, d=int(rng.integers(block.n + 1, 65536))).to_bytes()
    elif case == "k-above-16":
        raw[i] = replace(block, k=int(rng.integers(17, 256))).to_bytes()
    elif case == "unary-zero-count":
        j = int(rng.integers(block.u))
        flipped = "1" if block.unary[j] == "0" else "0"
        raw[i] = replace(block, unary=block.unary[:j] + flipped + block.unary[j + 1 :]).to_bytes()
    elif case == "position-past-block":
        raw[i] = block.past_the_block().to_bytes()
    elif case == "padding":
        padded = [s for s in ("unary", "low", "signs") if len(getattr(block, s)) % 8]
        raw[i] = block.to_bytes(pad=padded[int(rng.integers(len(padded)))])
    body = b"".join(raw)
    if case == "truncated":
        body = body[: -int(rng.integers(1, len(body) + 1))]
    elif case == "trailing":
        body += rng.integers(0, 256, int(rng.integers(1, 17)), dtype=np.uint8).tobytes()
    return roundlog.MAGIC + bytes([roundlog.VERSION, b_r]) + count + body
