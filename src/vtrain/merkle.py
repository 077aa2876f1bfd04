"""SHA-256 Merkle tree over weight-checkpoint digests.

Internal nodes hash the concatenation of their children; an unpaired node
at any level is promoted unchanged (no duplication, which avoids the
duplicate-leaf malleability of the doubling rule). A path stores no
sibling sides; as in RFC 6962 they follow from the leaf index. ``bisect``
is the one descent to the first divergent leaf, for a local tree and for
the socket game alike. Weight hashing fixes a canonical serialization so
two independent runs hash identically: tensors in declared order,
row-major elements, each cast to FP32 and written as four little-endian
bytes.

A tree of n leaves costs its n - 1 SHA-256 calls and little else:
``build`` checks every leaf is a 32-byte ``bytes`` in one pass, and
``read_tree`` checks the magic, the version, a nonzero leaf count and a
body of exactly 32 bytes per leaf, which proves the same of every leaf,
so both hand the leaf row straight to the one level loop.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TREE_MAGIC = b"VTMT"
TREE_VERSION = 1
DIGEST_LEN = 32
_HEADER_LEN = 13  # magic, version byte, 8-byte little-endian leaf count


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass
class MerkleTree:
    levels: list[list[bytes]] = field(repr=False)

    @property
    def leaves(self) -> list[bytes]:
        return self.levels[0]

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

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
    return _build(row)


def _build(row: list[bytes]) -> MerkleTree:
    """Hash a nonempty row of checked 32-byte leaves up to the root.

    ``row`` itself becomes the leaf level, uncopied.
    """
    sha256 = hashlib.sha256
    levels = [row]
    while len(row) > 1:
        nxt = [sha256(left + right).digest() for left, right in zip(row[::2], row[1::2])]
        if len(row) % 2:
            nxt.append(row[-1])
        levels.append(nxt)
        row = nxt
    return MerkleTree(levels)


def node(tree: MerkleTree, level: int, index: int) -> bytes:
    """Digest at (level, index); level 0 is the leaves."""
    if not 0 <= level < len(tree.levels):
        raise IndexError(f"level {level} out of range")
    row = tree.levels[level]
    if not 0 <= index < len(row):
        raise IndexError(f"index {index} out of range at level {level}")
    return row[index]


def path(tree: MerkleTree, leaf_index: int) -> MerklePath:
    """Authentication path for one leaf."""
    if not 0 <= leaf_index < len(tree.leaves):
        raise IndexError(f"leaf index {leaf_index} out of range")
    siblings: list[bytes | None] = []
    idx = leaf_index
    for row in tree.levels[:-1]:
        sib = idx ^ 1
        siblings.append(row[sib] if sib < len(row) else None)
        idx //= 2
    return MerklePath(leaf_index=leaf_index, leaf=tree.leaves[leaf_index], siblings=siblings)


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
    disagreeing node has two children, calls ``fetch(level, index)`` for
    both, left first, and descends into the leftmost child whose digest
    differs from ``tree``; a promoted child carries its parent's digest
    and is not fetched. Raises ValueError when both children match.
    """
    index, digest = 0, other_root
    siblings: list[bytes | None] = []
    for level in range(len(tree.levels) - 2, -1, -1):
        row = tree.levels[level]
        li = 2 * index
        if li + 1 >= len(row):
            siblings.append(None)
            index = li
            continue
        left, right = fetch(level, li), fetch(level, li + 1)
        if left != row[li]:
            index, digest = li, left
            siblings.append(right)
        elif right != row[li + 1]:
            index, digest = li + 1, right
            siblings.append(left)
        else:
            raise ValueError("parent digests differ but both children match")
    siblings.reverse()
    return MerklePath(leaf_index=index, leaf=digest, siblings=siblings)


def hash_weights(tensors) -> bytes:
    """SHA-256 over the canonical FP32 serialization of parameter tensors."""
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
    data = TREE_MAGIC + bytes([TREE_VERSION]) + len(tree.leaves).to_bytes(8, "little")
    Path(path_out).write_bytes(data + b"".join(tree.leaves))


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
    return _build([raw[i : i + DIGEST_LEN] for i in range(_HEADER_LEN, len(raw), DIGEST_LEN)])
