"""SHA-256 Merkle tree over weight-checkpoint digests.

Internal nodes hash the concatenation of their children; an unpaired node
at any level is promoted unchanged (no duplication, which avoids the
duplicate-leaf malleability of the doubling rule). A path stores no
sibling sides; as in RFC 6962 they follow from the leaf index. ``bisect``
is the one descent to the first divergent leaf, for a local tree and for
the socket game alike; it asks for both children of a node at once.
Weight hashing fixes a canonical serialization so two independent runs
hash identically: tensors in declared order, row-major elements, each
cast to FP32 and written as four little-endian bytes.

A tree holds each level as one ``bytes`` buffer of 32-byte digests, read
through ``node``, and costs its n - 1 SHA-256 calls and little else: a
level is hashed in C-level iterators with no bytecode and no object kept
per node. ``build`` checks every leaf is a 32-byte ``bytes`` and joins
them; ``read_tree`` checks the magic, the version, a nonzero leaf count
and a body of exactly 32 bytes per leaf, and takes the body as the leaf
level as it stands. ``write_tree`` writes the header and that level.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

TREE_MAGIC = b"VTMT"
TREE_VERSION = 1
DIGEST_LEN = 32
_HEADER_LEN = 13  # magic, version byte, 8-byte little-endian leaf count


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


_PAIR = f"{2 * DIGEST_LEN}s"  # two sibling digests, back to back
_HASH_DIGEST = type(hashlib.sha256()).digest  # the method, unbound, for map


@dataclass
class MerkleTree:
    """Each level is one ``bytes`` buffer of its 32-byte digests; level 0
    holds the leaves, and the last level the root alone."""

    levels: list[bytes] = field(repr=False)

    @property
    def leaf_count(self) -> int:
        return len(self.levels[0]) // DIGEST_LEN

    @property
    def root(self) -> bytes:
        return self.levels[-1]

    @property
    def root_hex(self) -> str:
        return self.root.hex()


@dataclass
class MerklePath:
    """Authentication path: the leaf digest plus one sibling per level.

    ``siblings`` runs from the leaf level up; ``None`` marks a level where
    the on-path node was promoted. Each sibling's side is the parity of
    the running index: an even index is a left child.
    """

    leaf_index: int
    leaf: bytes
    siblings: list[bytes | None]


def build(leaves: list[bytes]) -> MerkleTree:
    """Build a tree over the given ordered leaf digests."""
    row = list(leaves)
    if not row:
        raise ValueError("cannot build a Merkle tree with no leaves")
    if not all(isinstance(leaf, bytes) and len(leaf) == DIGEST_LEN for leaf in row):
        bad = next(i for i, leaf in enumerate(row)
                   if not isinstance(leaf, bytes) or len(leaf) != DIGEST_LEN)
        raise ValueError(f"leaf {bad} is not a 32-byte digest")
    return _build(b"".join(row))


def _build(row: bytes) -> MerkleTree:
    """Hash a nonempty buffer of whole 32-byte leaves up to the root.

    ``row`` itself becomes the leaf level. Each level above hashes its
    pairs with no bytecode per node: one ``unpack_from`` cuts the level
    into its pairs, ``map`` runs the SHA-256 calls, and an odd last digest
    joins the level as it is. (``iter_unpack`` with ``starmap`` does the
    same but makes a tuple per pair, which costs about 6% of a build.)
    """
    levels = [row]
    while len(row) > DIGEST_LEN:
        pairs = len(row) // (2 * DIGEST_LEN)
        hashed = map(_HASH_DIGEST, map(hashlib.sha256, struct.unpack_from(_PAIR * pairs, row)))
        row = b"".join(chain(hashed, (row[pairs * 2 * DIGEST_LEN :],)))
        levels.append(row)
    return MerkleTree(levels)


def node(tree: MerkleTree, level: int, index: int) -> bytes:
    """Digest at (level, index); level 0 is the leaves."""
    if not 0 <= level < len(tree.levels):
        raise IndexError(f"level {level} out of range")
    row = tree.levels[level]
    start = index * DIGEST_LEN
    if not 0 <= start < len(row):
        raise IndexError(f"index {index} out of range at level {level}")
    return row[start : start + DIGEST_LEN]


def path(tree: MerkleTree, leaf_index: int) -> MerklePath:
    """Authentication path for one leaf."""
    leaf = node(tree, 0, leaf_index)
    siblings: list[bytes | None] = []
    idx = leaf_index
    for level, row in enumerate(tree.levels[:-1]):
        sib = idx ^ 1
        siblings.append(node(tree, level, sib) if sib * DIGEST_LEN < len(row) else None)
        idx //= 2
    return MerklePath(leaf_index=leaf_index, leaf=leaf, siblings=siblings)


def verify_path(p: MerklePath, root: bytes) -> bool:
    """Recompute the root from a path, taking each side from the index.

    Rejects a promoted level (``None``) on an odd index, where a left
    sibling must exist, and index bits left over after the last level.
    """
    h, idx = p.leaf, p.leaf_index
    for sibling in p.siblings:
        if sibling is None:
            if idx % 2:
                return False
        elif idx % 2:
            h = _sha256(sibling + h)
        else:
            h = _sha256(h + sibling)
        idx //= 2
    return idx == 0 and h == root


def bisect(tree: MerkleTree, other_root: bytes, fetch) -> MerklePath:
    """The other party's path to the leftmost leaf where it differs from ``tree``.

    ``other_root`` must differ from ``tree.root``. At each level where the
    disagreeing node (level, index) has two children, calls
    ``fetch(level, index)`` once for the other party's ``(left, right)``
    children and descends into the leftmost one whose digest differs from
    ``tree``; a promoted child carries its parent's digest and is not
    fetched. Raises ValueError when both children match.
    """
    index, digest = 0, other_root
    siblings: list[bytes | None] = []
    for level in range(len(tree.levels) - 1, 0, -1):
        li = 2 * index
        if (li + 1) * DIGEST_LEN >= len(tree.levels[level - 1]):
            siblings.append(None)
            index = li
            continue
        left, right = fetch(level, index)
        if left != node(tree, level - 1, li):
            index, digest = li, left
            siblings.append(right)
        elif right != node(tree, level - 1, li + 1):
            index, digest = li + 1, right
            siblings.append(left)
        else:
            raise ValueError("parent digests differ but both children match")
    siblings.reverse()
    return MerklePath(leaf_index=index, leaf=digest, siblings=siblings)


def hash_weights(tensors) -> bytes:
    """SHA-256 over the canonical FP32 serialization of parameter tensors."""
    import numpy as np  # here, so the dispute game's imports of this module load no numpy

    h = hashlib.sha256()
    for i, t in enumerate(tensors):
        arr = np.ascontiguousarray(t, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite weight in tensor {i} at flat index {bad}")
        h.update(arr.astype("<f4").tobytes(order="C"))
    return h.digest()


def write_tree(tree: MerkleTree, path_out) -> None:
    """Persist leaf digests to the binary sidecar format."""
    header = TREE_MAGIC + bytes([TREE_VERSION]) + tree.leaf_count.to_bytes(8, "little")
    Path(path_out).write_bytes(header + tree.levels[0])


def read_tree(path_in) -> MerkleTree:
    """Load a sidecar file and rebuild the tree from its leaves."""
    raw = Path(path_in).read_bytes()
    if len(raw) < _HEADER_LEN or raw[:4] != TREE_MAGIC:
        raise ValueError("not a checkpoint tree file")
    if raw[4] != TREE_VERSION:
        raise ValueError(f"unsupported tree version {raw[4]}")
    count = int.from_bytes(raw[5:_HEADER_LEN], "little")
    if count == 0:
        raise ValueError("checkpoint tree file has no leaves")
    extra = len(raw) - _HEADER_LEN - count * DIGEST_LEN
    if extra < 0:
        raise ValueError("checkpoint tree file is truncated")
    if extra > 0:
        raise ValueError("checkpoint tree file length does not match its leaf count "
                         f"({extra} bytes after the last digest)")
    return _build(raw[_HEADER_LEN:])
