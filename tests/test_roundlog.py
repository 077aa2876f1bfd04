"""Packed ternary log: codec, streaming, size law, compression."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtrain import roundlog as rl


def pack5(digits) -> int:
    """Oracle for the format: five entries, little-endian base 3, one group at a time."""
    assert len(digits) == 5
    return sum(int(d) * 3**i for i, d in enumerate(digits))


def oracle_payload(digits) -> bytes:
    """The payload the format specifies: groups of five, the last padded with 1."""
    digits = list(digits) + [1] * (-len(digits) % 5)
    return bytes(pack5(digits[i : i + 5]) for i in range(0, len(digits), 5))


def written(path, digits) -> bytes:
    """Write ``digits`` with one ``write_array`` call; return the payload."""
    with rl.LogWriter(path, 32) as w:
        w.write_array(np.array(digits, dtype=np.uint8))
    return path.read_bytes()[rl.HEADER_LEN :]


def hand_made_log(path, payload: bytes) -> rl.LogReader:
    """A reader over a log whose payload bytes are given directly."""
    header = rl.MAGIC + bytes([rl.VERSION, 32, 0]) + (5 * len(payload)).to_bytes(8, "little")
    path.write_bytes(header + payload)
    return rl.LogReader(path)


class TestPack5:
    def test_all_zero(self, tmp_path):
        assert written(tmp_path / "a.vtrl", [0, 0, 0, 0, 0]) == bytes([0])

    def test_all_ignore(self, tmp_path):
        assert written(tmp_path / "a.vtrl", [1, 1, 1, 1, 1]) == bytes([121])

    def test_mixed(self, tmp_path):
        assert written(tmp_path / "a.vtrl", [2, 0, 0, 0, 1]) == bytes([83])

    def test_max(self, tmp_path):
        assert written(tmp_path / "a.vtrl", [2, 2, 2, 2, 2]) == bytes([242])

    def test_bad_digit(self, tmp_path):
        with rl.LogWriter(tmp_path / "a.vtrl", 32) as w:
            with pytest.raises(ValueError, match="direction out of range"):
                w.write_array(np.array([0, 0, 3, 0, 0], dtype=np.uint8))
            assert w.entry_count == 0

    def test_unpack_examples(self, tmp_path):
        reader = hand_made_log(tmp_path / "a.vtrl", bytes([0, 121, 83]))
        assert reader.read_array(15).tolist() == [0] * 5 + [1] * 5 + [2, 0, 0, 0, 1]

    def test_unpack_out_of_range(self, tmp_path):
        with pytest.raises(rl.LogFormatError, match="corrupt log byte"):
            hand_made_log(tmp_path / "a.vtrl", bytes([242, 243]))

    def test_every_byte_decodes(self, tmp_path):
        reader = hand_made_log(tmp_path / "a.vtrl", bytes(range(243)))
        digits = reader.read_array(5 * 243).reshape(243, 5)
        assert [pack5(row) for row in digits.tolist()] == list(range(243))

    @settings(deadline=None)
    @given(st.lists(st.sampled_from((0, 1, 2)), min_size=5, max_size=5))
    def test_bijection(self, tmp_path_factory, digits):
        path = tmp_path_factory.mktemp("b") / "b.vtrl"
        assert written(path, digits) == bytes([pack5(digits)])
        assert rl.LogReader(path).read_array(5).tolist() == digits


class TestWriterReader:
    def test_five_entries_single_byte(self, tmp_path):
        path = tmp_path / "a.vtrl"
        with rl.LogWriter(path, 32) as w:
            w.write_array(np.ones(5, dtype=np.uint8))
        raw = path.read_bytes()
        assert raw[: rl.HEADER_LEN][:4] == b"VTRL"
        assert raw[rl.HEADER_LEN :] == bytes([121])
        reader = rl.LogReader(path)
        assert reader.entry_count == 5

    def test_padding_with_ignore(self, tmp_path):
        path = tmp_path / "b.vtrl"
        payload = written(path, [0, 0, 0, 0, 0, 2])
        # 2 followed by four pad-1s: 2 + 3 + 9 + 27 + 81
        assert list(payload) == [0, 122]
        reader = rl.LogReader(path)
        assert reader.entry_count == 6
        assert reader.read_array(6).tolist() == [0, 0, 0, 0, 0, 2]

    def test_empty_log(self, tmp_path):
        path = tmp_path / "c.vtrl"
        rl.LogWriter(path, 26).close()
        reader = rl.LogReader(path)
        assert reader.entry_count == 0
        assert path.stat().st_size == rl.HEADER_LEN

    def test_exhaustion(self, tmp_path):
        path = tmp_path / "d.vtrl"
        written(path, [2])
        reader = rl.LogReader(path)
        assert reader.read_array(1).tolist() == [2]
        with pytest.raises(rl.LogExhaustedError, match="log exhausted"):
            reader.read_array(1)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "e.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(rl.LogFormatError, match="not a rounding log"):
            rl.LogReader(path)

    def test_write_array_matches_scalar_writes(self, tmp_path):
        # split writes, some shorter than a group, against the oracle's
        # one-group-at-a-time packing
        rng = np.random.default_rng(0)
        digits = rng.integers(0, 3, size=2003).astype(np.uint8)
        path = tmp_path / "v.vtrl"
        with rl.LogWriter(path, 32) as w:
            for lo, hi in ((0, 2), (2, 3), (3, 7), (7, 1500), (1500, 1501), (1501, 2003)):
                w.write_array(digits[lo:hi])
        assert path.read_bytes()[rl.HEADER_LEN :] == oracle_payload(digits)
        assert rl.LogReader(path).entry_count == 2003

    def test_roundtrip_various_lengths(self, tmp_path):
        rng = np.random.default_rng(1)
        for n in (0, 1, 4, 5, 6, 99, 1000, 12345):
            digits = rng.integers(0, 3, size=n).astype(np.uint8)
            path = tmp_path / f"r{n}.vtrl"
            with rl.LogWriter(path, 29) as w:
                w.write_array(digits)
            back = rl.LogReader(path).read_array(n)
            assert np.array_equal(back, digits)

    def test_size_law(self, tmp_path):
        for n in (5, 100, 100000):
            path = tmp_path / f"z{n}.vtrl"
            with rl.LogWriter(path, 32) as w:
                w.write_array(np.ones(n, dtype=np.uint8))
            assert path.stat().st_size == rl.HEADER_LEN + (n + 4) // 5
            assert rl.file_bytes_for(n) == path.stat().st_size

    def test_deflate_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        digits = rng.integers(0, 3, size=50000).astype(np.uint8)
        path = tmp_path / "defl.vtrl"
        with rl.LogWriter(path, 32, compress=True) as w:
            w.write_array(digits)
        reader = rl.LogReader(path)
        assert reader.flags & rl.FLAG_DEFLATE
        assert np.array_equal(reader.read_array(50000), digits)

    def test_corrupt_byte_detected(self, tmp_path):
        path = tmp_path / "corrupt.vtrl"
        with rl.LogWriter(path, 32) as w:
            w.write_array(np.zeros(10, dtype=np.uint8))
        raw = bytearray(path.read_bytes())
        raw[rl.HEADER_LEN] = 250
        path.write_bytes(bytes(raw))
        with pytest.raises(rl.LogFormatError, match="corrupt log byte"):
            rl.LogReader(path)

    def test_histogram(self, tmp_path):
        path = tmp_path / "h.vtrl"
        digits = np.array([0, 0, 1, 2, 2, 2, 1], dtype=np.uint8)
        with rl.LogWriter(path, 32) as w:
            w.write_array(digits)
        hist = rl.LogReader(path).histogram()
        assert hist == {0: 2, 1: 2, 2: 3}
        assert sum(hist.values()) == 7


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from((0, 1, 2)), min_size=0, max_size=400))
def test_roundtrip_property(tmp_path_factory, digits):
    path = tmp_path_factory.mktemp("rt") / "p.vtrl"
    with rl.LogWriter(path, 32) as w:
        for d in digits:
            w.write_array(np.array([d], dtype=np.uint8))
    assert path.read_bytes()[rl.HEADER_LEN :] == oracle_payload(digits)
    reader = rl.LogReader(path)
    assert reader.read_array(len(digits)).tolist() == digits
    assert reader.remaining == 0


def test_compressibility_monotonic(tmp_path):
    """Ignore-heavy logs never DEFLATE larger than uniform ones."""
    n = 50000
    for seed in range(10):
        rng = np.random.default_rng(seed)
        uniform = rng.integers(0, 3, size=n).astype(np.uint8)
        skewed = np.where(rng.random(n) < 0.9, 1, rng.integers(0, 3, size=n)).astype(np.uint8)
        packed_u = rl._pack_block(uniform)
        packed_s = rl._pack_block(skewed)
        assert len(zlib.compress(packed_s)) <= len(zlib.compress(packed_u))


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v9.vtrl"
    written(path, [1])
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(rl.LogFormatError, match="version"):
        rl.LogReader(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.vtrl"
    with rl.LogWriter(path, 32) as w:
        w.write_array(np.ones(100, dtype=np.uint8))
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(rl.LogFormatError, match="truncated"):
        rl.LogReader(path)
