"""Sparse rounding log: codec, streaming, size bound, refusal of damaged logs."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtrain import fpround
from vtrain import roundlog as rl

from harness import DAMAGE, Block, damaged_log, log_bytes

BLOCK = rl._BLOCK  # entries the writer codes at a time


def oracle_payload(digits) -> bytes:
    """The payload the format specifies: ``Block`` of each run of ``BLOCK`` entries."""
    digits = list(digits)
    return b"".join(Block.of(digits[i : i + BLOCK]).to_bytes()
                    for i in range(0, len(digits), BLOCK))


def head(d: int, k: int, u: int) -> bytes:
    return struct.pack("<HBH", d, k, u)


def written(path, digits) -> bytes:
    """Write ``digits`` with one ``write_array`` call; return the payload."""
    with rl.LogWriter(path, 32) as w:
        w.write_array(np.array(digits, dtype=np.uint8))
    return path.read_bytes()[rl.HEADER_LEN :]


def hand_made_log(path, count: int, payload: bytes) -> rl.LogReader:
    """A reader over a log of ``count`` entries whose payload bytes are given directly."""
    path.write_bytes(rl.MAGIC + bytes([rl.VERSION, 32]) + count.to_bytes(8, "little") + payload)
    return rl.LogReader(path)


def mix(rng, n: int, directed: float) -> np.ndarray:
    """``n`` codes, each directed (UP or DOWN alike) with probability ``directed``."""
    codes = np.where(rng.random(n) < directed, 2 * rng.integers(0, 2, n), 1)
    return codes.astype(np.uint8)


class TestPack5:
    """What a write of a few entries codes to, and which values a write takes."""

    def test_all_zero(self, tmp_path):
        # five gaps of 0 at k = 0: five unary zeros, five DOWN signs
        assert written(tmp_path / "a.vtrl", [0, 0, 0, 0, 0]) == head(5, 0, 5) + bytes([0, 0])

    def test_all_ignore(self, tmp_path):
        assert written(tmp_path / "a.vtrl", [1, 1, 1, 1, 1]) == head(0, 0, 0)

    def test_mixed(self, tmp_path):
        assert written(tmp_path / "a.vtrl", [2, 0, 0, 0, 1]) == head(4, 0, 4) + bytes([0, 0x80])

    def test_max(self, tmp_path):
        assert written(tmp_path / "a.vtrl", [2, 2, 2, 2, 2]) == head(5, 0, 5) + bytes([0, 0xF8])

    def test_bad_digit(self, tmp_path):
        with rl.LogWriter(tmp_path / "a.vtrl", 32) as w:
            with pytest.raises(ValueError, match="invalid direction code"):
                w.write_array(np.array([0, 0, 3, 0, 0], dtype=np.uint8))
            assert w.entry_count == 0

    @pytest.mark.parametrize("values", [
        np.array([256, 257, 258]),  # a cast to uint8 would wrap these to 0, 1, 2
        np.array([0.9, 2.7]),  # and truncate these to 0, 2
        np.array([1, 1, -1], dtype=np.int8),
        np.array([1.0, np.nan]),
        np.array([2, 3], dtype=np.uint16),
    ], ids=["wraps", "fractions", "negative", "nan", "uint16"])
    def test_values_that_are_not_codes_are_refused(self, tmp_path, values):
        path = tmp_path / "a.vtrl"
        with rl.LogWriter(path, 32) as w:
            with pytest.raises(ValueError, match="invalid direction code"):
                w.write_array(values)
            assert w.entry_count == 0
        assert path.stat().st_size == rl.HEADER_LEN

    def test_write_after_close_is_refused(self, tmp_path):
        path = tmp_path / "a.vtrl"
        w = rl.LogWriter(path, 32)
        w.write_array(np.ones(3, dtype=np.uint8))
        w.close()
        for n in (1, 7):  # the block would take either without emitting a byte
            with pytest.raises(ValueError, match="closed log"):
                w.write_array(np.zeros(n, dtype=np.uint8))
        assert w.entry_count == rl.LogReader(path).entry_count == 3

    def test_exact_codes_in_any_dtype_are_taken(self, tmp_path):
        path = tmp_path / "a.vtrl"
        with rl.LogWriter(path, 32) as w:
            for values in ([0, 1, 2], np.array([2.0, 0.0]), np.array([[1], [2]], dtype=np.int64)):
                w.write_array(values)
        assert rl.LogReader(path).read_array(7).tolist() == [0, 1, 2, 2, 0, 1, 2]

    def test_unpack_examples(self, tmp_path):
        # gaps 3 and 5 at k = 1, which the writer would not pick: quotients
        # 1 and 2 ("10", "110"), remainders 1 and 1, signs UP then DOWN
        payload = head(2, 1, 5) + bytes([0b10110000, 0b11000000, 0b10000000])
        reader = hand_made_log(tmp_path / "a.vtrl", 10, payload)
        assert reader.read_array(10).tolist() == [1, 1, 1, 2, 1, 1, 1, 1, 1, 0]

    def test_unpack_out_of_range(self, tmp_path):
        with pytest.raises(rl.LogFormatError, match="block of 10 entries claims 11 directed"):
            hand_made_log(tmp_path / "a.vtrl", 10, head(11, 0, 11) + bytes(2 + 2))

    def test_every_byte_decodes(self, tmp_path):
        # 2048 directed entries at k = 0: the sign stream is bytes 0 to 255
        payload = head(2048, 0, 2048) + bytes(256) + bytes(range(256))
        reader = hand_made_log(tmp_path / "a.vtrl", 2048, payload)
        digits = reader.read_array(2048).reshape(256, 8)
        assert np.array_equal(digits, 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                                         axis=1))

    @settings(deadline=None)
    @given(st.lists(st.sampled_from((0, 1, 2)), min_size=5, max_size=5))
    def test_bijection(self, tmp_path_factory, digits):
        path = tmp_path_factory.mktemp("b") / "b.vtrl"
        assert written(path, digits) == Block.of(digits).to_bytes()
        assert rl.LogReader(path).read_array(5).tolist() == digits


class TestWriterReader:
    def test_five_ignore_entries_are_one_block_header(self, tmp_path):
        path = tmp_path / "a.vtrl"
        with rl.LogWriter(path, 32) as w:
            w.write_array(np.ones(5, dtype=np.uint8))
        raw = path.read_bytes()
        assert raw[:6] == b"VTRL" + bytes([3, 32])
        assert raw[rl.HEADER_LEN :] == head(0, 0, 0)
        reader = rl.LogReader(path)
        assert reader.entry_count == 5
        assert reader.read_array(5).tolist() == [1] * 5

    def test_streams_are_zero_padded(self, tmp_path):
        path = tmp_path / "b.vtrl"
        # six unary zeros in one byte, then the signs 000001 in another
        assert written(path, [0, 0, 0, 0, 0, 2]) == head(6, 0, 6) + bytes([0, 0b00000100])
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
        # split writes, some of a single entry, against the oracle's
        # one-entry-at-a-time coding
        digits = mix(np.random.default_rng(0), 2003, 0.6)
        path = tmp_path / "v.vtrl"
        with rl.LogWriter(path, 32) as w:
            for lo, hi in ((0, 2), (2, 3), (3, 7), (7, 1500), (1500, 1501), (1501, 2003)):
                w.write_array(digits[lo:hi])
        assert path.read_bytes()[rl.HEADER_LEN :] == oracle_payload(digits)
        assert rl.LogReader(path).entry_count == 2003

    @pytest.mark.parametrize("directed", [0.2, 0.01], ids=["plain", "sparse"])
    @pytest.mark.parametrize("sizes", [
        [0], [1], [4], [BLOCK - 1], [BLOCK], [BLOCK + 1], [3 * BLOCK - 3],
        # the same sizes from the offsets they leave in the block
        [0, 1, 4, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK - 3, 4, BLOCK + 1, 1],
    ], ids=["0", "1", "4", "block-1", "block", "block+1", "three-blocks", "mixed"])
    def test_block_buffer_matches_one_shot_packing(self, tmp_path, directed, sizes):
        digits = mix(np.random.default_rng(len(sizes) + sizes[0]), sum(sizes), directed)
        path = tmp_path / "blocks.vtrl"
        with rl.LogWriter(path, 32) as w:
            for part in np.split(digits, np.cumsum(sizes)[:-1]):
                w.write_array(part)
        assert path.read_bytes()[rl.HEADER_LEN :] == oracle_payload(digits)
        reader = rl.LogReader(path)
        assert reader.entry_count == digits.size
        assert np.array_equal(reader.read_array(digits.size), digits)

    def test_roundtrip_various_lengths(self, tmp_path):
        rng = np.random.default_rng(1)
        for n in (0, 1, 4, 5, 6, 99, 1000, 12345):
            digits = rng.integers(0, 3, size=n).astype(np.uint8)
            path = tmp_path / f"r{n}.vtrl"
            with rl.LogWriter(path, 29) as w:
                w.write_array(digits)
            back = rl.LogReader(path).read_array(n)
            assert np.array_equal(back, digits)

    def test_reads_across_blocks(self, tmp_path):
        digits = mix(np.random.default_rng(3), 3 * BLOCK + 17, 0.3)
        path = tmp_path / "x.vtrl"
        with rl.LogWriter(path, 32) as w:
            w.write_array(digits)
        reader = rl.LogReader(path)
        cuts = [0, 5, BLOCK - 3, BLOCK + 4, 2 * BLOCK, 3 * BLOCK + 17]
        for lo, hi in zip(cuts, cuts[1:]):
            assert np.array_equal(reader.read_array(hi - lo), digits[lo:hi])
        assert reader.remaining == 0

    def test_size_law(self, tmp_path):
        for n in (5, 100, 100000):
            blocks = -(-n // BLOCK)
            for code, size in ((1, rl.HEADER_LEN + 5 * blocks), (2, rl.file_bytes_for(n))):
                path = tmp_path / f"z{n}-{code}.vtrl"
                with rl.LogWriter(path, 32) as w:
                    w.write_array(np.full(n, code, dtype=np.uint8))
                assert path.stat().st_size == size
        # every entry directed: 2 bits an entry and a 5-byte header per block
        assert rl.file_bytes_for(100000) == rl.HEADER_LEN + 3 * 5 + 2 * 100000 // 8

    def test_size_never_passes_the_bound(self, tmp_path):
        rng = np.random.default_rng(4)
        for n in (1, 7, 9, 30, 1000, BLOCK + 9):
            for directed in (0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0):
                path = tmp_path / "s.vtrl"
                with rl.LogWriter(path, 32) as w:
                    w.write_array(mix(rng, n, directed))
                assert path.stat().st_size <= rl.file_bytes_for(n), (n, directed)

    def test_corrupt_byte_detected(self, tmp_path):
        path = tmp_path / "corrupt.vtrl"
        with rl.LogWriter(path, 32) as w:
            w.write_array(np.zeros(10, dtype=np.uint8))
        raw = bytearray(path.read_bytes())
        raw[rl.HEADER_LEN] = 250  # d, in a block of 10
        path.write_bytes(bytes(raw))
        with pytest.raises(rl.LogFormatError, match="claims 250 directed"):
            rl.LogReader(path)

    def test_histogram(self, tmp_path):
        path = tmp_path / "h.vtrl"
        digits = np.array([0, 0, 1, 2, 2, 2, 1], dtype=np.uint8)
        with rl.LogWriter(path, 32) as w:
            w.write_array(digits)
        reader = rl.LogReader(path)
        reader.read_array(3)
        hist = reader.histogram()  # the whole log, wherever the reader is
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3000), min_size=0, max_size=300))
def test_rice_parameter_is_the_smallest_best(gaps):
    def size(k):
        return -(-(len(gaps) + sum(g >> k for g in gaps)) // 8) + -(-len(gaps) * k // 8)

    best = min(range(17), key=size)
    assert rl._rice_parameter(np.array(gaps, dtype=np.int64)) == best


def test_compressibility_monotonic(tmp_path):
    """Ignore-heavy logs never code larger than uniform ones."""
    n = 50000
    for seed in range(10):
        rng = np.random.default_rng(seed)
        uniform = rng.integers(0, 3, size=n).astype(np.uint8)
        skewed = np.where(rng.random(n) < 0.9, 1, rng.integers(0, 3, size=n)).astype(np.uint8)
        sizes = []
        for codes in (uniform, skewed):
            path = tmp_path / f"{len(sizes)}.vtrl"
            with rl.LogWriter(path, 32) as w:
                w.write_array(codes)
            sizes.append(path.stat().st_size)
        assert sizes[1] <= sizes[0]


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v9.vtrl"
    written(path, [1])
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(rl.LogFormatError, match="version"):
        rl.LogReader(path)


@pytest.mark.parametrize("b_r", [0, fpround.MIN_B - 1, fpround.MAX_B + 1, 200])
def test_b_r_outside_the_grid_range_rejected(tmp_path, b_r):
    path = tmp_path / "b_r.vtrl"
    written(path, [1])
    raw = bytearray(path.read_bytes())
    raw[5] = b_r
    path.write_bytes(bytes(raw))
    with pytest.raises(rl.LogFormatError, match=f"log b_r {b_r} outside"):
        rl.LogReader(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.vtrl"
    with rl.LogWriter(path, 32) as w:
        w.write_array(np.ones(100, dtype=np.uint8))
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(rl.LogFormatError, match="truncated"):
        rl.LogReader(path)


@pytest.mark.parametrize("entries", [7, 2 * BLOCK + 7], ids=["plain", "blocks"])
def test_bytes_after_payload_rejected(tmp_path, entries):
    path = tmp_path / "extra.vtrl"
    with rl.LogWriter(path, 32) as w:
        w.write_array(mix(np.random.default_rng(5), entries, 0.5))
    path.write_bytes(path.read_bytes() + bytes(3))
    with pytest.raises(rl.LogFormatError, match="3 bytes after"):
        rl.LogReader(path)


def test_largest_entry_count_is_truncated(tmp_path):
    path = tmp_path / "huge.vtrl"
    path.write_bytes(log_bytes([1] * 5, count=2**64 - 1))
    with pytest.raises(rl.LogFormatError, match="truncated"):
        rl.LogReader(path)


def test_claimed_count_does_not_set_memory(tmp_path):
    """A header claiming 2^40 entries over one block is refused while memory
    follows the block, not the claim."""
    path = tmp_path / "claim.vtrl"
    path.write_bytes(log_bytes(mix(np.random.default_rng(6), BLOCK, 0.5), count=2**40))
    tracemalloc.start()
    try:
        with pytest.raises(rl.LogFormatError, match="truncated"):
            rl.LogReader(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"


def test_reader_memory_follows_one_block(tmp_path):
    """Reading a log a few thousand entries at a time peaks at the same
    traced memory for 2 blocks as for 20."""
    peaks = []
    for blocks in (2, 20):
        path = tmp_path / f"{blocks}.vtrl"
        with rl.LogWriter(path, 32) as w:
            w.write_array(mix(np.random.default_rng(7), blocks * BLOCK, 0.5))
        tracemalloc.start()
        try:
            reader = rl.LogReader(path)
            while reader.remaining:
                reader.read_array(min(4096, reader.remaining))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the 20-block log decoded whole would take 20 * BLOCK bytes more
    assert peaks[1] < 1.25 * peaks[0], peaks


def fuzz_codes(seed: int) -> np.ndarray:
    """One or two blocks of a random mix, each with a directed first and last entry."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 2)) * BLOCK + int(rng.integers(100, BLOCK + 1))
    codes = mix(rng, n, float(rng.uniform(0.02, 0.9)))
    codes[::BLOCK] = 0
    codes[np.minimum(np.arange(BLOCK - 1, n + BLOCK - 1, BLOCK), n - 1)] = 2
    return codes


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(DAMAGE))
def test_damaged_log_is_refused(tmp_path, case, seed):
    rng = np.random.default_rng(1000 * seed + sorted(DAMAGE).index(case))
    codes = fuzz_codes(seed)
    path = tmp_path / "damaged.vtrl"
    path.write_bytes(damaged_log(case, codes, rng))
    message = DAMAGE[case]
    with pytest.raises(rl.LogFormatError, match=message):
        reader = rl.LogReader(path)
        reader.read_array(reader.entry_count)
    with pytest.raises(rl.LogFormatError, match=message):
        rl.LogReader(path).histogram()

