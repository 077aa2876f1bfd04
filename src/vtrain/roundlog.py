"""Packed on-disk format for rounding-decision streams.

Five ternary entries go into one byte in little-endian base 3
(``d0 + 3*d1 + 9*d2 + 27*d3 + 81*d4``), 1.6 bits per entry. Layout:

    offset  size  field
    0       4     magic "VTRL"
    4       1     version (2)
    5       1     b_r
    6       1     flags (bit 0: payload is DEFLATE-compressed)
    7       8     entry count, little-endian unsigned
    15      ...   payload

Version 2 entry streams hold only the slots ``protocol.TrainConfig.log_slots``
lists: no ReLU outputs past the first stage and no first-stage input
gradient. Version 1 logs had both, so readers reject them.

The final partial group is padded with 1 (ignore), which a reader can
never surface because it stops at the recorded entry count. The header
stays uncompressed either way so counts are readable without inflating.

Entries go in and come out as flat ``uint8`` arrays: ``LogWriter.write_array``
appends, ``LogReader.read_array`` takes the next ``n`` in write order.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from .fpround import IGNORE, MAX_B, MIN_B

MAGIC = b"VTRL"
VERSION = 2
HEADER_LEN = 15
FLAG_DEFLATE = 0x01

_WEIGHTS = np.array([1, 3, 9, 27, 81], dtype=np.uint8)
_MAX_BYTE = 242  # 3^5 - 1
# row b holds the five base-3 digits of byte b, lowest first
_DIGITS = (np.arange(_MAX_BYTE + 1)[:, None] // _WEIGHTS.astype(np.int64) % 3).astype(np.uint8)


class LogFormatError(ValueError):
    """Header or payload does not describe a valid rounding log."""


class LogExhaustedError(RuntimeError):
    """More directions were requested than the log contains."""


def _pack_block(digits: np.ndarray) -> bytes:
    """Pack a multiple-of-5-length uint8 digit array into bytes."""
    groups = digits.reshape(-1, 5)
    return (groups * _WEIGHTS).sum(axis=1, dtype=np.uint16).astype(np.uint8).tobytes()


def _unpack_block(raw: bytes) -> np.ndarray:
    data = np.frombuffer(raw, dtype=np.uint8)
    if data.size and data.max() > _MAX_BYTE:
        raise LogFormatError("corrupt log byte")
    return _DIGITS[data].reshape(-1)


class LogWriter:
    """Sequential writer. Buffers at most four entries; bytes go straight out."""

    def __init__(self, path, b_r: int, compress: bool = False):
        self.path = Path(path)
        self.b_r = int(b_r)
        self.entry_count = 0
        self._tail = np.empty(0, dtype=np.uint8)  # at most four entries
        self._file = open(self.path, "wb")
        self._compressor = zlib.compressobj() if compress else None
        flags = FLAG_DEFLATE if compress else 0
        header = MAGIC + bytes([VERSION, self.b_r, flags]) + (0).to_bytes(8, "little")
        self._file.write(header)
        self._closed = False

    def _emit(self, payload: bytes) -> None:
        if self._compressor is not None:
            payload = self._compressor.compress(payload)
        try:
            self._file.write(payload)
        except OSError as e:
            raise OSError(f"log write failed at byte offset {self._file.tell()}: {e}") from e

    def write_array(self, directions: np.ndarray) -> None:
        """Append an array of directions, in row-major order."""
        d = np.asarray(directions, dtype=np.uint8).reshape(-1)
        if d.size == 0:
            return
        if d.max() > 2:
            raise ValueError("direction out of range")
        self.entry_count += int(d.size)
        if self._tail.size:
            take = 5 - self._tail.size
            self._tail = np.concatenate((self._tail, d[:take]))
            d = d[take:]
            if self._tail.size < 5:
                return
            self._emit(_pack_block(self._tail))
        full = d.size - d.size % 5
        if full:
            self._emit(_pack_block(d[:full]))
        self._tail = d[full:].copy()

    def close(self) -> None:
        if self._closed:
            return
        if self._tail.size:
            pad = np.full(5 - self._tail.size, IGNORE, dtype=np.uint8)
            self._emit(_pack_block(np.concatenate((self._tail, pad))))
        if self._compressor is not None:
            self._file.write(self._compressor.flush())
        self._file.seek(7)
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
            self.flags = header[6]
            if self.flags & ~FLAG_DEFLATE:
                raise LogFormatError(f"unknown log flags 0x{self.flags:02x}")
            self.entry_count = int.from_bytes(header[7:15], "little")
            payload = f.read()
        expected = payload_bytes_for(self.entry_count)
        if self.flags & FLAG_DEFLATE:
            inflater = zlib.decompressobj()
            try:
                # one byte past the header's claim shows a longer stream, so
                # memory follows the header, not what the stream inflates to
                payload = inflater.decompress(payload, expected + 1)
            except zlib.error as e:
                raise LogFormatError(f"corrupt compressed payload: {e}") from e
            if len(payload) > expected:
                raise LogFormatError("bytes after the rounding log's payload: the compressed "
                                     f"payload inflates past {expected} bytes")
            if not inflater.eof:
                raise LogFormatError("corrupt compressed payload: incomplete or truncated stream")
            if inflater.unused_data:
                raise LogFormatError(f"{len(inflater.unused_data)} bytes after the "
                                     "compressed payload")
        extra = len(payload) - expected
        if extra < 0:
            raise LogFormatError("truncated rounding log")
        if extra > 0:
            raise LogFormatError(f"{extra} bytes after the rounding log's payload")
        self._digits = _unpack_block(payload)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self.entry_count - self._pos

    def read_array(self, n: int) -> np.ndarray:
        """Next n directions as a uint8 array."""
        if self._pos + n > self.entry_count:
            raise LogExhaustedError("log exhausted")
        out = self._digits[self._pos : self._pos + n]
        self._pos += n
        return out

    def histogram(self) -> dict[int, int]:
        """Direction counts over the whole log."""
        counts = np.bincount(self._digits[: self.entry_count], minlength=3)
        return {0: int(counts[0]), 1: int(counts[1]), 2: int(counts[2])}


def payload_bytes_for(entries: int) -> int:
    """Packed payload size for a given entry count (uncompressed)."""
    return (entries + 4) // 5


def file_bytes_for(entries: int) -> int:
    """Total uncompressed file size for a given entry count."""
    return HEADER_LEN + payload_bytes_for(entries)
