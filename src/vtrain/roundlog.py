"""On-disk format for rounding-decision streams: a sparse code of the
directed entries.

Most entries are IGNORE under a calibrated tau, so a log codes only the
directed ones: the gap of IGNORE entries before each, in a Golomb–Rice
code, and one sign bit each. Layout, integers little-endian:

    offset  size  field
    0       4     magic "VTRL"
    4       1     version (3)
    5       1     b_r
    6       8     entry count
    14      ...   blocks of _BLOCK entries, the last one shorter

    block:
    0       2     d, the block's directed entries
    2       1     k, its Rice parameter, 0 to 16
    3       2     u, its unary bits
    5       ...   unary quotients, u bits
                  remainders, d * k bits
                  signs, d bits

Each stream is zero-padded to a byte; bits go most significant first.
The i-th gap counts the IGNORE entries between directed entry i - 1 (or
the block's start) and directed entry i. Its quotient ``gap >> k`` is that
many 1 bits and a 0, its remainder the low ``k`` bits of the gap, and its
sign bit is 1 for UP, 0 for DOWN. The writer takes the smallest ``k``
that minimises the block's unary and remainder bytes, so a log is one
function of its entries. With every entry directed the gaps are 0, ``k``
is 0 and a block takes 2 bits an entry: the most any block takes
(``payload_bytes_for``).

Version 3 logs hold only the slots ``protocol.TrainConfig.log_slots``
lists. Version 2 logs packed five entries a byte in base 3, and version 1
logs also held slots no replay reads; readers reject both.

Entries go in and come out as flat ``uint8`` arrays: ``LogWriter.write_array``
appends, ``LogReader.read_array`` takes the next ``n`` in write order. The
writer copies entries into one block and codes only a full block, so a
write of a few dozen entries is one check and one copy; the file does not
depend on how the entries are split into writes. The reader checks every
block header when it opens a log, so a log of the wrong length is refused
before a replay, and then decodes one block at a time: its memory follows
one block, not the header's entry count.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .fpround import DOWN, IGNORE, MAX_B, MIN_B, UP, check_codes

MAGIC = b"VTRL"
VERSION = 3
HEADER_LEN = 14

_BLOCK = 5 * 2**13  # entries per block: a multiple of 8, and below 2^16, so d and u fit 2 bytes
_HEAD = struct.Struct("<HBH")  # d, k, u
_MAX_K = 16
_SIGN_CODES = np.array([DOWN, UP], dtype=np.uint8)  # by sign bit


class LogFormatError(ValueError):
    """Header or payload does not describe a valid rounding log."""


class LogExhaustedError(RuntimeError):
    """More directions were requested than the log contains."""


def _block_sizes(entries: int):
    """Entries in each block of a log of ``entries``."""
    for lo in range(0, entries, _BLOCK):
        yield min(_BLOCK, entries - lo)


def _rice_parameter(gaps: np.ndarray) -> int:
    """The smallest k in 0 to ``_MAX_K`` that minimises a block's unary and
    remainder bytes."""
    # sum(gaps >> k) is the sum over j >= 1 of how many gaps reach j * 2^k;
    # past the largest gap's bit length a larger k only adds remainder bits
    reach = np.cumsum(np.bincount(gaps)[::-1])[::-1]
    k = np.arange(min(_MAX_K, reach.size.bit_length()) + 1)
    quotients = np.array([reach[1 << j :: 1 << j].sum() for j in k], dtype=np.int64)
    return int(np.argmin(-(-(gaps.size + quotients) // 8) + -(-(gaps.size * k) // 8)))


def _encode_block(entries: np.ndarray) -> bytes:
    at = np.flatnonzero(entries != IGNORE)
    gaps = np.diff(at, prepend=-1) - 1
    k = _rice_parameter(gaps)
    # quotient i ends at the zero after the quotients before it and i zeros;
    # at k = 0 that is the directed entry's own position
    ends = np.cumsum(gaps >> k) + np.arange(at.size) if k else at
    unary = np.ones(ends[-1] + 1 if ends.size else 0, dtype=np.uint8)
    unary[ends] = 0
    low = np.empty((at.size, k), dtype=np.uint8)
    for j in range(k):  # a column at a time: k is small, d is not
        low[:, j] = (gaps >> (k - 1 - j)) & 1
    return b"".join((_HEAD.pack(at.size, k, unary.size), np.packbits(unary).tobytes(),
                     np.packbits(low).tobytes(), np.packbits(entries[at] == UP).tobytes()))


def _read_head(f, n: int) -> tuple[int, int, int]:
    """A block header's ``(d, k, u)``, once they fit a block of ``n`` entries."""
    raw = f.read(_HEAD.size)
    if len(raw) < _HEAD.size:
        raise LogFormatError("truncated rounding log")
    d, k, u = _HEAD.unpack(raw)
    if d > n:
        raise LogFormatError(f"block of {n} entries claims {d} directed")
    if k > _MAX_K:
        raise LogFormatError(f"Rice parameter {k} above {_MAX_K}")
    # d zeros end the quotients, and the gaps sum to at most n - d
    if not d <= u <= d + ((n - d) >> k):
        raise LogFormatError(f"{u} unary bits for {d} directed entries of {n}")
    return d, k, u


def _stream_bytes(d: int, k: int, u: int) -> int:
    return -(-u // 8) + -(-(d * k) // 8) + -(-d // 8)


def _bits(f, count: int) -> np.ndarray:
    """The next ``count`` bits of a zero-padded stream."""
    raw = f.read(-(-count // 8))
    if len(raw) * 8 < count:
        raise LogFormatError("truncated rounding log")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[count:].any():
        raise LogFormatError("nonzero padding bits")
    return bits[:count]


def _decode_block(f, n: int) -> np.ndarray:
    d, k, u = _read_head(f, n)
    unary, low, signs = _bits(f, u), _bits(f, d * k), _bits(f, d)
    ends = np.flatnonzero(unary == 0)
    if ends.size != d or (u and unary[-1]):
        raise LogFormatError(f"unary stream does not end {d} quotients")
    # directed entry i follows i directed entries and the gaps up to its
    # own: the quotients before its zero, shifted, and the remainders
    at = ends
    if k:
        rem = np.zeros(d, dtype=np.int64)
        for column in low.reshape(d, k).T:
            rem = rem << 1 | column
        i = np.arange(d)
        at = ((ends - i) << k) + i + np.cumsum(rem)
    if d and at[-1] >= n:
        raise LogFormatError(f"directed entry at {at[-1]} past a block of {n}")
    entries = np.full(n, IGNORE, dtype=np.uint8)
    entries[at] = _SIGN_CODES[signs]
    return entries


class LogWriter:
    """Sequential writer. Buffers one block of ``_BLOCK`` entries; a full
    block is coded and goes straight out."""

    def __init__(self, path, b_r: int):
        self.path = Path(path)
        self.b_r = int(b_r)
        self.entry_count = 0
        self._block = np.empty(_BLOCK, dtype=np.uint8)
        self._fill = 0  # entries in the block, always fewer than _BLOCK
        self._file = open(self.path, "wb")
        self._file.write(MAGIC + bytes([VERSION, self.b_r]) + (0).to_bytes(8, "little"))
        self._closed = False

    def _emit(self, entries: np.ndarray) -> None:
        try:
            self._file.write(_encode_block(entries))
        except OSError as e:
            raise OSError(f"log write failed at byte offset {self._file.tell()}: {e}") from e

    def write_array(self, directions: np.ndarray) -> None:
        """Append an array of directions, in row-major order, after
        ``fpround.check_codes``."""
        if self._closed:
            raise ValueError("write to a closed log")
        d = check_codes(directions).reshape(-1)
        self.entry_count += d.size
        while self._fill + d.size >= _BLOCK:
            take = _BLOCK - self._fill
            self._block[self._fill :] = d[:take]
            self._emit(self._block)
            self._fill, d = 0, d[take:]
        self._block[self._fill : self._fill + d.size] = d
        self._fill += d.size

    def close(self) -> None:
        if self._closed:
            return
        if self._fill:
            self._emit(self._block[: self._fill])
        self._file.seek(6)
        self._file.write(self.entry_count.to_bytes(8, "little"))
        self._file.close()
        self._closed = True

    def __enter__(self) -> "LogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LogReader:
    """Sequential reader over a log file written by LogWriter."""

    def __init__(self, path):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            header = f.read(HEADER_LEN)
            if len(header) < HEADER_LEN or header[:4] != MAGIC:
                raise LogFormatError("not a rounding log")
            if header[4] != VERSION:
                raise LogFormatError(f"unsupported log version {header[4]}")
            self.b_r = header[5]
            if not MIN_B <= self.b_r <= MAX_B:
                raise LogFormatError(f"log b_r {self.b_r} outside [{MIN_B}, {MAX_B}]")
            self.entry_count = int.from_bytes(header[6:HEADER_LEN], "little")
            for n in _block_sizes(self.entry_count):
                f.seek(_stream_bytes(*_read_head(f, n)), os.SEEK_CUR)
            extra = os.fstat(f.fileno()).st_size - f.tell()
        if extra < 0:
            raise LogFormatError("truncated rounding log")
        if extra > 0:
            raise LogFormatError(f"{extra} bytes after the rounding log's payload")
        self._stream = self._blocks()
        self._block = np.empty(0, dtype=np.uint8)
        self._at = 0  # entries of the current block already read
        self._pos = 0

    def _blocks(self):
        """Each block's entries in turn; the file is open only while one is decoded."""
        offset = HEADER_LEN
        for n in _block_sizes(self.entry_count):
            with open(self.path, "rb") as f:
                f.seek(offset)
                entries = _decode_block(f, n)
                offset = f.tell()
            yield entries

    @property
    def remaining(self) -> int:
        return self.entry_count - self._pos

    def read_array(self, n: int) -> np.ndarray:
        """Next n directions as a uint8 array."""
        if n > self.remaining:
            raise LogExhaustedError("log exhausted")
        self._pos += n
        out = self._block[self._at : self._at + n]
        self._at += out.size
        if out.size == n:
            return out
        parts, n = [out], n - out.size
        while n:
            self._block = next(self._stream)
            parts.append(self._block[:n])
            self._at = parts[-1].size
            n -= self._at
        return np.concatenate(parts)

    def histogram(self) -> dict[int, int]:
        """Direction counts over the whole log."""
        counts = np.zeros(3, dtype=np.int64)
        for entries in self._blocks():
            counts += np.bincount(entries, minlength=3)
        return {0: int(counts[0]), 1: int(counts[1]), 2: int(counts[2])}


def _block_bound(n: int) -> int:
    return _HEAD.size + 2 * -(-n // 8)


def payload_bytes_for(entries: int) -> int:
    """The most bytes the blocks of a log of ``entries`` take: every entry
    directed (``k = 0``, 2 bits an entry, and the block headers)."""
    full, rest = divmod(entries, _BLOCK)
    return full * _block_bound(_BLOCK) + (_block_bound(rest) if rest else 0)


def file_bytes_for(entries: int) -> int:
    """The most bytes a log of ``entries`` takes, header included."""
    return HEADER_LEN + payload_bytes_for(entries)
