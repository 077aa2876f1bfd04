"""Merkle tree: construction, paths, descent, weight hashing, sidecar."""

import hashlib

import numpy as np
import pytest

from vtrain import merkle

from harness import children_fetch, two_child_levels

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def leaf(i: int) -> bytes:
    return hashlib.sha256(f"leaf-{i}".encode()).digest()


def reference_levels(leaves):
    """Levels by one hash per pair, left to right, an odd last node promoted."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        nxt = []
        for i in range(0, len(cur), 2):
            if i + 1 < len(cur):
                nxt.append(hashlib.sha256(cur[i] + cur[i + 1]).digest())
            else:
                nxt.append(cur[i])
        levels.append(nxt)
    return levels


def assert_nodes(t, want):
    """``t`` holds exactly the levels ``want`` lists, node by node."""
    assert len(t.levels) == len(want)
    for level, row in enumerate(want):
        assert [merkle.node(t, level, i) for i in range(len(row))] == row, level
        with pytest.raises(IndexError):
            merkle.node(t, level, len(row))


# SHA-256 of the .vtmt file of leaf(0..n-1), as the list-per-level tree wrote it
VTMT_SHA256 = {
    13: "b80aea1546e38242e454431ef503ae3b9c1200f2540eb3a10ba7160a444eb1e4",
    70: "76defad0bf4881997633f3f2533714fbb1f8025478c0975932b59939f6aa698f",
}


class TestBuildOracle:
    @pytest.mark.parametrize("n", list(range(1, 71)) + [4095, 4096, 4097])
    def test_levels_match_reference(self, tmp_path, n):
        leaves = [leaf(i) for i in range(n)]
        want = reference_levels(leaves)
        t = merkle.build(leaves)
        assert_nodes(t, want)
        p = tmp_path / "t.vtmt"
        merkle.write_tree(t, p)
        assert_nodes(merkle.read_tree(p), want)

    @pytest.mark.parametrize("n", sorted(VTMT_SHA256))
    def test_file_bytes_unchanged(self, tmp_path, n):
        p = tmp_path / "t.vtmt"
        merkle.write_tree(merkle.build([leaf(i) for i in range(n)]), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == VTMT_SHA256[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 4096])
    def test_hash_calls_are_one_per_internal_node(self, tmp_path, monkeypatch, n):
        leaves = [leaf(i) for i in range(n)]
        p = tmp_path / "t.vtmt"
        merkle.write_tree(merkle.build(leaves), p)
        calls = []
        real = hashlib.sha256

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(hashlib, "sha256", counting)
        merkle.build(leaves)
        assert len(calls) == n - 1
        calls.clear()
        merkle.read_tree(p)
        assert len(calls) == n - 1


class TestBuild:
    def test_single_leaf_is_root(self):
        h = leaf(0)
        assert merkle.build([h]).root == h

    def test_two_leaves(self):
        h1, h2 = leaf(1), leaf(2)
        assert merkle.build([h1, h2]).root == hashlib.sha256(h1 + h2).digest()

    def test_odd_promotion(self):
        h1, h2, h3 = leaf(1), leaf(2), leaf(3)
        inner = hashlib.sha256(h1 + h2).digest()
        assert merkle.build([h1, h2, h3]).root == hashlib.sha256(inner + h3).digest()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merkle.build([])

    def test_bad_leaf_rejected(self):
        with pytest.raises(ValueError):
            merkle.build([b"short"])

    def test_deterministic(self):
        leaves = [leaf(i) for i in range(13)]
        assert merkle.build(leaves).root == merkle.build(leaves).root

    def test_leaves_are_the_first_level(self):
        given = [leaf(i) for i in range(5)]
        t = merkle.build(given)
        assert t.levels[0] == b"".join(given)
        assert t.leaf_count == 5
        given[0] = leaf(99)  # the tree keeps its own row, not the caller's list
        assert merkle.node(t, 0, 0) == leaf(0)

    @pytest.mark.parametrize("bad", [
        bytearray(leaf(0)), leaf(0)[:31], leaf(0) + b"\0", "x" * 32,
    ], ids=["bytearray", "31-bytes", "33-bytes", "str"])
    def test_bad_leaf_named_by_index(self, bad):
        leaves = [leaf(i) for i in range(9)]
        leaves[5] = bad
        leaves[7] = bad
        with pytest.raises(ValueError, match=r"^leaf 5 is not a 32-byte digest$"):
            merkle.build(leaves)

    def test_single_leaf_substitution_changes_root(self):
        leaves = [leaf(i) for i in range(16)]
        base = merkle.build(leaves).root
        for i in range(16):
            changed = list(leaves)
            changed[i] = leaf(100 + i)
            assert merkle.build(changed).root != base


class TestNodeAndPath:
    def test_node_lookup(self):
        t = merkle.build([leaf(1), leaf(2), leaf(3)])
        assert merkle.node(t, 0, 2) == leaf(3)
        assert merkle.node(t, 1, 0) == hashlib.sha256(leaf(1) + leaf(2)).digest()
        assert merkle.node(t, 2, 0) == t.root

    def test_node_out_of_range(self):
        t = merkle.build([leaf(1)])
        with pytest.raises(IndexError):
            merkle.node(t, 0, 1)
        with pytest.raises(IndexError):
            merkle.node(t, 5, 0)

    def test_single_leaf_path_empty(self):
        t = merkle.build([leaf(0)])
        p = merkle.path(t, 0)
        assert p.siblings == []
        assert merkle.verify_path(p, t.root)

    def test_two_leaf_path(self):
        t = merkle.build([leaf(1), leaf(2)])
        p = merkle.path(t, 0)
        assert p.siblings == [leaf(2)]
        assert merkle.verify_path(p, t.root)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 64])
    def test_all_paths_verify(self, n):
        t = merkle.build([leaf(i) for i in range(n)])
        for i in range(n):
            assert merkle.verify_path(merkle.path(t, i), t.root)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_path_verifies_only_at_its_index(self, n):
        t = merkle.build([leaf(i) for i in range(n)])
        for i in range(n):
            p = merkle.path(t, i)
            for j in range(-1, 2 * n):
                p.leaf_index = j
                assert merkle.verify_path(p, t.root) == (j == i), (i, j)

    def test_tampered_path_fails(self):
        t = merkle.build([leaf(i) for i in range(8)])
        p = merkle.path(t, 3)
        p.siblings[1] = leaf(99)
        assert not merkle.verify_path(p, t.root)


class TestFirstDivergence:
    """``bisect`` over two local trees finds the leftmost differing leaf."""

    def test_last_leaf_differs(self):
        a = merkle.build([leaf(i) for i in range(8)])
        b_leaves = [leaf(i) for i in range(7)] + [leaf(99)]
        b = merkle.build(b_leaves)
        assert merkle.bisect(a, b.root, children_fetch(b)).leaf_index == 7

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(3)
        checked = 0
        for trial in range(200):
            n = int(rng.integers(1, 40))
            base = [leaf(i) for i in range(n)]
            other = list(base)
            flips = rng.integers(0, n, size=int(rng.integers(0, 4)))
            for f in flips:
                other[int(f)] = leaf(1000 + trial * 100 + int(f))
            a, b = merkle.build(base), merkle.build(other)
            oracle = next((i for i in range(n) if base[i] != other[i]), None)
            assert (a.root == b.root) == (oracle is None)
            if oracle is not None:
                got = merkle.bisect(a, b.root, children_fetch(b))
                assert got.leaf_index == oracle
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("n", range(1, 65))
    def test_query_bound(self, n):
        base = [leaf(i) for i in range(n)]
        other = list(base)
        other[n - 1] = leaf(777)
        a, b = merkle.build(base), merkle.build(other)
        fetches = []
        served = children_fetch(b)

        def fetch(level, index):
            fetches.append((level, index))
            return served(level, index)

        merkle.bisect(a, b.root, fetch)
        # one fetch per level whose on-path node has two children, top down
        assert len(fetches) == two_child_levels(b, n - 1)
        assert [level for level, _ in fetches] == sorted({lv for lv, _ in fetches}, reverse=True)


class TestHashWeights:
    def test_empty_model(self):
        assert merkle.hash_weights([]).hex() == EMPTY_SHA256

    def test_digest_length(self):
        d = merkle.hash_weights([np.ones((2, 3)), np.zeros(3)])
        assert len(d) == 32

    def test_sub_fp32_bits_ignored(self):
        w1 = [np.array([0.1, 0.2, 0.3])]
        w2 = [np.array([0.1, 0.2, 0.3]) * (1.0 + 2.0**-40)]
        assert merkle.hash_weights(w1) == merkle.hash_weights(w2)

    def test_fp32_bit_changes_digest(self):
        w1 = [np.array([0.1, 0.2, 0.3])]
        w2 = [np.array([0.1, 0.2, 0.3 * (1.0 + 2.0**-20)])]
        assert merkle.hash_weights(w1) != merkle.hash_weights(w2)

    def test_canonical_bytes(self):
        w = np.arange(6, dtype=np.float64).reshape(2, 3)
        expected = hashlib.sha256(w.astype("<f4").tobytes()).digest()
        assert merkle.hash_weights([w]) == expected

    def test_non_finite_named(self):
        w = [np.zeros(3), np.array([1.0, np.inf, 2.0])]
        with pytest.raises(ValueError, match="tensor 1.*index 1"):
            merkle.hash_weights(w)


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        t = merkle.build([leaf(i) for i in range(9)])
        p = tmp_path / "t.vtmt"
        merkle.write_tree(t, p)
        back = merkle.read_tree(p)
        assert back.levels == t.levels
        assert back.root == t.root

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.vtmt"
        p.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(ValueError, match="not a checkpoint tree"):
            merkle.read_tree(p)

    def test_truncated(self, tmp_path):
        t = merkle.build([leaf(0), leaf(1)])
        p = tmp_path / "trunc.vtmt"
        merkle.write_tree(t, p)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            merkle.read_tree(p)

    def test_zero_leaf_count(self, tmp_path):
        p = tmp_path / "empty.vtmt"
        p.write_bytes(merkle.TREE_MAGIC + bytes([merkle.TREE_VERSION]) + bytes(8))
        with pytest.raises(ValueError, match="no leaves"):
            merkle.read_tree(p)

    @pytest.mark.parametrize("extra", [1, 31, 32])
    def test_trailing_bytes(self, tmp_path, extra):
        t = merkle.build([leaf(0), leaf(1)])
        p = tmp_path / "long.vtmt"
        merkle.write_tree(t, p)
        p.write_bytes(p.read_bytes() + bytes(extra))
        with pytest.raises(ValueError, match="does not match its leaf count") as err:
            merkle.read_tree(p)
        assert "truncated" not in str(err.value)

    def test_root_prints_lowercase_hex(self):
        t = merkle.build([leaf(0)])
        assert t.root_hex == t.root.hex()
        assert t.root_hex == t.root_hex.lower()
        assert len(t.root_hex) == 64
