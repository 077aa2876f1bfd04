"""Reduced-precision grid arithmetic on IEEE-754 doubles.

All persistent training state lives on a "grid": the finite FP32 values
whose low ``32 - b`` mantissa bits are zero, re-expressed exactly as FP64.
``b`` (the rounding amount) ranges from 10 to 32; ``b = 32`` is the full
FP32 value set and smaller ``b`` coarsens the grid by a factor of two per
step. Values are computed in FP64 and pulled onto the grid with
``rnd_array``.

Each party splits a logged tensor into its bit fields once, in one
kernel. The trainer's ``round_and_code`` gives the rounded tensor and a
ternary code per element (0 = rounded down, 1 = ignore, 2 = rounded up),
directed (not 1) only where the value sits further than ``tau``
(relative to its binary exponent) from its grid point. The auditor's
``replay`` takes a second, slightly perturbed computation of the same
tensor plus the recorded codes, lands on the grid points the trainer
chose, and counts the elements the codes moved off nearest rounding.
``check_codes`` is the one check that codes are exactly 0, 1 or 2, for
``replay`` and ``roundlog.LogWriter`` alike, and ``rnd_array`` uses the
same bit split. ``direction_array`` and ``rev_array`` are the codes of
the one kernel and the values of the other; nothing in the package
calls them, and they stay only because ``bench/spans.py`` wraps them.

Everything here is implemented on the bit representation so that results
are identical across machines. The grid operations are array-only: they
take anything ``np.asarray`` accepts and return ``float64`` ndarrays
(codes as ``uint8``).

The split reads the exponent field once. Its largest value finds
non-finite inputs and magnitudes of 2^128 or more, which every kernel
refuses, and is the only reason to check a result against ``grid_max``;
its smallest is the only reason to look for values below 2^-126, where the
grid's spacing is absolute. Above 2^-126 the ``b_r`` grid is the
accumulator grid of width ``b_r + 3`` (``round_to_width``). Nearest
rounding onto it is Veltkamp's split (Dekker 1971), three flops:
``c = x * (2^s + 1)`` with ``s = 61 - b_r``, then ``c - (c - x)`` is ``x``
rounded to ``b_r - 8`` significant bits, to nearest with ties to even, sign
included. ``s`` runs from 29 to 51, inside the split's valid range. ``c``
overflows once ``|x|`` passes about ``2^(1024 - s)`` (2^973 at ``b_r`` 10),
and the split then gives NaN; refusing 2^128 and beyond up front keeps
``c`` below 2^180.

Both parties then read ``d = nearest - x``, which is exact (Sterbenz). The
trainer compares it with ``tau`` times the exponent scale to choose a code.
The auditor moves off nearest only where the code names the other
neighbour, which is where ``code - 1`` and ``d`` have opposite signs; the
move is one grid step on the bit pattern (``grid.unit`` below 2^-126).
"""

from __future__ import annotations

import functools

import numpy as np

# Ternary rounding-direction codes.
DOWN = 0
IGNORE = 1
UP = 2

MIN_B = 10
MAX_B = 32
MAX_B_TR = 64

# Smallest normal FP32 magnitude; used as the exponent-scale floor so the
# threshold test never works with a vanishing scale.
SCALE_FLOOR = 2.0 ** -126

_MASK64 = (1 << 64) - 1


def _check_b(b_r: int) -> None:
    if not isinstance(b_r, (int, np.integer)) or not MIN_B <= b_r <= MAX_B:
        raise ValueError(f"b_r must be an integer in [{MIN_B}, {MAX_B}], got {b_r!r}")


def check_b_tr(b_tr: int, b_r: int, tau: float, fan_in: int) -> None:
    """Reject a training precision that the replay cannot keep in sync.

    ``b_tr`` is the accumulator width: FP64 with the low ``64 - b_tr``
    mantissa bits zero, so ``b_tr - 12`` mantissa bits are kept, which
    must be more than the ``b_r - 9`` of the model grid. Below 64 bits, two
    association orders of an ``n``-term sum differ by up to
    ``(n - 1) * 2^-(b_tr - 12)`` relative to ``sum |x|`` (Higham's
    ``gamma(n - 1)`` bound, once per order), and that must stay under
    ``tau``. The bound is necessary, not sufficient: ``replay`` resyncs
    relative to each output's own exponent scale, and cancellation puts
    ``sum |x|`` far above the output.
    """
    if not isinstance(b_tr, (int, np.integer)) or not b_r + 3 < b_tr <= MAX_B_TR:
        raise ValueError(
            f"b_tr must be an integer in [{b_r + 4}, {MAX_B_TR}] for b_r={b_r}, got {b_tr!r}"
        )
    if b_tr < MAX_B_TR and (fan_in - 1) * 2.0 ** (12 - b_tr) >= tau:
        raise ValueError(
            f"b_tr={b_tr} accumulation noise over fan-in {fan_in} reaches tau {tau!r}"
        )


def tau_bounds(b_r: int) -> tuple[float, float]:
    """Valid [lower, upper] range for the relative threshold at rounding amount b_r."""
    _check_b(b_r)
    return 0.25 * 2.0 ** -23, 0.5 * 2.0 ** (9 - b_r)


def grid_max(b_r: int) -> float:
    """Largest magnitude representable on the b_r grid."""
    _check_b(b_r)
    kept = b_r - 9
    return (2.0 - 2.0 ** -kept) * 2.0 ** 127


class OutOfRange(ValueError):
    """A value the grid cannot hold: non-finite, or past ``grid_max``."""


_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_EXPONENT = np.uint64(0x7FF << 52)
_FLOOR = np.float64(SCALE_FLOOR).view(np.uint64)
_BINADE_127 = np.float64(2.0 ** 127).view(np.uint64)
_BINADE_128 = np.float64(2.0 ** 128).view(np.uint64)


@functools.lru_cache(maxsize=None)
def _width_bits(b_tr: int) -> tuple[np.uint64, np.uint64, np.uint64]:
    """``round_to_width``'s shift, bias and mask at width b_tr, as uint64 scalars."""
    drop = 64 - b_tr
    bias, mask = (1 << (drop - 1)) - 1, _MASK64 ^ ((1 << drop) - 1)
    return np.uint64(drop), np.uint64(bias), np.uint64(mask)


def round_to_width(a: np.ndarray, b_tr: int) -> np.ndarray:
    """Round a float64 array in place onto the b_tr accumulator grid.

    The grid is the FP64 values whose low ``64 - b_tr`` mantissa bits are
    zero (``b_tr - 12`` mantissa bits kept); rounding is to nearest, ties
    to even. Adding half-minus-one plus the kept lowest bit, then clearing
    the dropped bits, lets the carry roll into the exponent at binade
    edges, as IEEE rounding does; the sign bit is never reached.
    """
    shift, bias, mask = _width_bits(b_tr)
    bits = a.view(np.uint64)
    carry = bits >> shift
    carry &= _ONE
    carry += bias
    bits += carry
    bits &= mask
    return a


class _Grid:
    """The b_r grid's constants, built once per width (``_GRIDS``).

    ``step`` is one grid step on the bit pattern of a value from 2^-126 up,
    ``1 << drop`` as int64, where ``drop`` is the number of mantissa bits
    below the grid's last kept bit. ``unit`` is the grid's spacing below
    2^-126, ``max`` is ``grid_max`` and ``split`` is Veltkamp's factor
    ``2^s + 1``, ``s = 64 - (b_r + 3)``.
    """

    def __init__(self, b_r: int):
        self.step = np.int64(1 << (52 - (b_r - 9)))
        self.unit = 2.0 ** ((32 - b_r) - 149)
        self.max = grid_max(b_r)
        self.split = np.float64(2 ** (64 - (b_r + 3)) + 1)


_GRIDS = {b_r: _Grid(b_r) for b_r in range(MIN_B, MAX_B + 1)}


class _GridBits:
    """One bit split of float64 values against the b_r grid.

    This is the only code that knows the bit layout. It holds the grid's
    constants (``grid``), the values (``arr``) and their bit patterns
    (``bits``), and reads the exponent field (``exponent``) once: a
    non-finite value raises here, as does a magnitude of 2^128 or more,
    whose every grid neighbour is past ``grid_max`` and whose split would
    overflow; ``near_max`` says whether any value reaches 2^127 (only then
    can a result pass ``grid_max``), and ``tiny``
    marks the nonzero values below 2^-126, or is ``None`` when there are
    none. There the grid's spacing is ``grid.unit`` and the grid points are
    found by scaling, which is exact, as is rint on the scaled values (all
    below 2^23). Once the caller has read the exponent field, its buffer is
    free for reuse.

    The kernels run on tensors of a few dozen elements as often as on large
    ones, so each numpy call is a direct ufunc call with uint64 constants
    built once, not a Python-level wrapper such as ``ndarray.max``.
    """

    def __init__(self, x, b_r: int):
        _check_b(b_r)
        self.grid = _GRIDS[b_r]
        arr = np.asarray(x, dtype=np.float64)
        self.arr = arr if arr.ndim else arr.reshape(1)
        self.bits = self.arr.view(np.uint64)
        self.exponent = self.bits & _EXPONENT
        top = np.maximum.reduce(self.exponent, axis=None, initial=_ZERO)
        if top == _EXPONENT:
            raise OutOfRange("non-finite value")
        self.near_max = top >= _BINADE_127
        if self.near_max and top >= _BINADE_128:
            raise OutOfRange("out of representable range")
        self.tiny = None
        if np.minimum.reduce(self.exponent, axis=None, initial=_FLOOR) < _FLOOR:
            tiny = self.exponent < _FLOOR
            tiny &= self.arr != 0.0
            if tiny.any():
                self.tiny = tiny

    def nearest(self, out: np.ndarray) -> np.ndarray:
        """Nearest grid values (ties to the even kept bit), written into ``out``.

        ``out`` is a buffer of the values' shape with 8-byte items, which
        the result takes over. Veltkamp's split gives ``round_to_width(x,
        b_r + 3)`` bit for bit; below 2^-126 the fix-up overwrites it.
        """
        rounded = np.multiply(self.arr, self.grid.split, out=out.view(np.float64))
        np.subtract(rounded, rounded - self.arr, out=rounded)
        if self.tiny is not None:
            unit = self.grid.unit
            rounded[self.tiny] = np.rint(self.arr[self.tiny] / unit) * unit
        return self.checked(rounded)

    def checked(self, values: np.ndarray) -> np.ndarray:
        """``values``, after checking that none passes grid_max."""
        if self.near_max and np.maximum.reduce(np.abs(values), axis=None) > self.grid.max:
            raise OutOfRange("out of representable range")
        return values


def rnd_array(x, b_r: int) -> np.ndarray:
    """Round each element onto the b_r grid (nearest, ties to even)."""
    g = _GridBits(x, b_r)
    return g.nearest(g.exponent)


def round_and_code(x, b_r: int, tau: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The trainer's pass: ``rnd_array``, ``direction_array`` and the number
    of directed (not IGNORE) codes, from one bit split."""
    g = _GridBits(x, b_r)
    rounded = g.nearest(np.empty_like(g.bits))
    # r - x is exact (Sterbenz), and |r - x| > t splits into r - x > t (UP)
    # and r - x < -t (DOWN); the two comparisons sum to DOWN, IGNORE or UP.
    # t is the exponent scale, floored at 2^-126, times tau.
    d = rounded - g.arr
    t = np.maximum(g.exponent, _FLOOR, out=g.exponent).view(np.float64)
    t *= tau
    up = d > t
    np.negative(t, out=t)
    not_down = d >= t
    directed = int(np.count_nonzero(up) + d.size - np.count_nonzero(not_down))
    codes = up.view(np.uint8)
    codes += not_down.view(np.uint8)
    return rounded, codes, directed


def exponent_scale_array(x) -> np.ndarray:
    """2^E per element, where 1 <= |x| / 2^E < 2, floored at 2^-126: the
    scale ``round_and_code`` measures tau against. Zero maps to 2^-126."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    exponent = arr.view(np.uint64) & _EXPONENT
    if np.maximum.reduce(exponent, axis=None, initial=_ZERO) == _EXPONENT:
        raise OutOfRange("non-finite value")
    out = np.maximum(exponent, _FLOOR, out=exponent).view(np.float64)
    return out.reshape(np.shape(x)) if np.shape(x) else out


def direction_array(x, b_r: int, tau: float) -> np.ndarray:
    """Ternary code per element: 2 up, 0 down, 1 within tau of the grid.

    The comparison scale is the element's exponent scale floored at
    2^-126, so FP32-subnormal values use the bottom normal binade's scale.
    """
    return round_and_code(x, b_r, tau)[1]


def check_codes(codes) -> np.ndarray:
    """``codes`` as a ``uint8`` array of its shape, once every value is
    exactly DOWN, IGNORE or UP; anything else is refused before a cast to
    ``uint8`` could wrap it onto a code."""
    c = np.asarray(codes)
    if c.dtype != np.uint8:
        if not np.isin(c, (DOWN, IGNORE, UP)).all():
            raise ValueError("invalid direction code")
        return c.astype(np.uint8)
    if c.size and np.maximum.reduce(c, axis=None) > UP:
        raise ValueError("invalid direction code")
    return c


def replay(x, b_r: int, codes) -> tuple[np.ndarray, int]:
    """The auditor's pass: ``rev_array`` and its correction count from one bit split.

    The result is ``rnd_array`` except where the code names the grid
    neighbour of x on the other side from its nearest grid point; there it
    is that neighbour, one grid step away. The count is the number of
    elements moved.
    """
    g = _GridBits(x, b_r)
    c = np.asarray(codes)
    if c.ndim == 0:
        c = c.reshape(1)
    if c.shape != g.arr.shape:
        raise ValueError(f"codes shape {c.shape} does not match values shape {g.arr.shape}")
    c = check_codes(c)
    replayed = g.nearest(np.empty_like(g.bits))
    # d = nearest - x is exact (Sterbenz). The code names the other
    # neighbour exactly where code - 1 (-1, 0 or +1) and d have opposite
    # signs, that is, where their product is negative.
    way = np.subtract(c, 1, dtype=np.int8)
    d = np.subtract(replayed, g.arr, out=g.exponent.view(np.float64))
    d *= way
    move = d < 0.0
    corrections = int(np.count_nonzero(move))
    if corrections:
        # index arrays: faster than a boolean mask for the reads and the write
        move = move.nonzero()
        near, way = replayed[move], way[move]
        # one grid step on the bit pattern, away from zero where the move's
        # direction and the value's sign agree, so binade edges come out right
        moved = np.where((way > 0) ^ np.signbit(near), g.grid.step, -g.grid.step)
        moved += near.view(np.int64)
        moved = moved.view(np.float64)
        if g.tiny is not None:
            # below 2^-126 the step is grid.unit, and a zero keeps x's sign
            tiny = g.tiny[move]
            near = near[tiny]
            moved[tiny] = np.copysign(near + way[tiny] * g.grid.unit, near)
        replayed[move] = g.checked(moved)
    return replayed, corrections


def rev_array(x, b_r: int, codes) -> np.ndarray:
    """Replay rounding with recorded codes.

    Where the natural nearest rounding already agrees with the code (or
    the code is 1), this is plain ``rnd_array``. Where the code points the other
    way, the adjacent grid value on the coded side of x is taken instead.
    """
    return replay(x, b_r, codes)[0]
