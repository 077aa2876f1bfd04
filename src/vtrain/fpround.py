"""Reduced-precision grid arithmetic on IEEE-754 doubles.

All persistent training state lives on a "grid": the finite FP32 values
whose low ``32 - b`` mantissa bits are zero, re-expressed exactly as FP64.
``b`` (the rounding amount) ranges from 10 to 32; ``b = 32`` is the full
FP32 value set and smaller ``b`` coarsens the grid by a factor of two per
step. Values are computed in FP64 and pulled onto the grid with
``rnd_array``.

``direction_array`` classifies how a value relates to its grid point: a
ternary code (0 = rounded down, 1 = ignore, 2 = rounded up) is produced
only when the value sits further than ``tau`` (relative to its binary
exponent) from the grid point. ``rev_array`` is the replay half: given a
second, slightly perturbed computation of the same value plus the
recorded code, it lands on the same grid point the original party chose.

Everything here is implemented on the bit representation so that results
are identical across machines. The grid operations are array-only: they
take anything ``np.asarray`` accepts and return ``float64`` ndarrays
(codes as ``uint8``).

Each party splits a logged tensor into its bit fields once. The trainer's
``round_and_code`` gives the rounded tensor and its codes; the auditor's
``replay`` gives the replayed tensor and the number of elements the codes
moved off nearest rounding. ``direction_array`` and ``rev_array`` are
views of these two kernels, and ``rnd_array`` uses the same bit split.

The split reads the exponent field once. Its largest value finds
non-finite inputs and is the only reason to check a result against
``grid_max``; its smallest is the only reason to look for values below
2^-126, where the grid's spacing is absolute. Above 2^-126 the ``b_r``
grid is the accumulator grid of width ``b_r + 3`` (``round_to_width``),
so nearest rounding is one add and one mask on the whole bit pattern, sign
included. A replay takes the grid point truncated toward zero and adds
one grid step to the bit pattern where it goes away from zero.
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
    ``tau``. The bound is necessary, not sufficient: ``rev_array`` resyncs
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

    ``drop`` is the number of mantissa bits below the grid's last kept bit,
    ``low`` their mask and ``half`` half a grid step, all as uint64.
    ``unit`` is the grid's spacing below 2^-126 and ``max`` is ``grid_max``.
    """

    def __init__(self, b_r: int):
        drop = 52 - (b_r - 9)
        self.b_r = b_r
        self.drop = np.uint64(drop)
        self.low = np.uint64((1 << drop) - 1)
        self.half = np.uint64(1 << (drop - 1))
        self.unit = 2.0 ** ((32 - b_r) - 149)
        self.max = grid_max(b_r)


_GRIDS = {b_r: _Grid(b_r) for b_r in range(MIN_B, MAX_B + 1)}


class _GridBits:
    """One bit split of float64 values against the b_r grid.

    This is the only code that knows the bit layout. It holds the grid's
    constants (``grid``), the values (``arr``) and their bit patterns
    (``bits``), and reads the exponent field (``exponent``) once: a
    non-finite value raises here, ``near_max`` says whether any value
    reaches 2^127 (only then can a result pass ``grid_max``), and ``tiny``
    marks the nonzero values below 2^-126, or is ``None`` when there are
    none. There the grid's spacing is ``grid.unit`` and the grid points are
    found by scaling, which is exact, as are floor, ceil and rint on the
    scaled values (all below 2^23). Once the caller has read the exponent
    field, its buffer is free for reuse.

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
        self.tiny = None
        if np.minimum.reduce(self.exponent, axis=None, initial=_FLOOR) < _FLOOR:
            tiny = self.exponent < _FLOOR
            tiny &= self.arr != 0.0
            if tiny.any():
                self.tiny = tiny

    def nearest(self, out: np.ndarray) -> np.ndarray:
        """Nearest grid values (ties to the even kept bit), written into ``out``.

        ``out`` is a buffer of the values' shape with 8-byte items, which
        the result takes over.
        """
        rounded = out.view(np.float64)
        np.copyto(rounded, self.arr)
        round_to_width(rounded, self.grid.b_r + 3)
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


def round_and_code(x, b_r: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The trainer's pass: ``rnd_array`` and ``direction_array`` from one bit split."""
    g = _GridBits(x, b_r)
    rounded = g.nearest(np.empty_like(g.bits))
    # r - x is exact (Sterbenz), and |r - x| > t splits into r - x > t (UP)
    # and r - x < -t (DOWN); the two comparisons sum to DOWN, IGNORE or UP.
    # t is the exponent scale, floored at 2^-126, times tau.
    d = rounded - g.arr
    t = np.maximum(g.exponent, _FLOOR, out=g.exponent).view(np.float64)
    t *= tau
    codes = (d > t).view(np.uint8)
    np.negative(t, out=t)
    codes += (d >= t).view(np.uint8)
    return rounded, codes


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


def replay(x, b_r: int, codes) -> tuple[np.ndarray, int]:
    """The auditor's pass: ``rev_array`` and its correction count from one bit split.

    Where the code points against nearest rounding, the result is the grid
    neighbour the code names; everywhere else it is ``rnd_array``. The count is
    the number of elements moved off their nearest grid point.
    """
    g = _GridBits(x, b_r)
    grid = g.grid
    c = np.asarray(codes)
    if c.ndim == 0:
        c = c.reshape(1)
    if c.shape != g.arr.shape:
        raise ValueError(f"codes shape {c.shape} does not match values shape {g.arr.shape}")
    # an unsigned array holds no code below DOWN
    if c.size and (np.maximum.reduce(c, axis=None) > UP
                   or c.dtype.kind != "u" and np.minimum.reduce(c, axis=None) < DOWN):
        raise ValueError("invalid direction code")
    low = np.bitwise_and(g.bits, grid.low, out=g.exponent)
    toward = g.bits ^ low  # the grid point truncated toward zero, signed
    # nearest goes away from zero past half a step, and at half a step
    # when the kept lowest bit is odd
    up = g.bits >> grid.drop
    up &= _ONE
    up += low
    up = up > grid.half
    off = low != _ZERO  # not on the grid: the two neighbours differ
    if g.tiny is not None:
        steps = np.abs(g.arr[g.tiny]) / grid.unit
        below = np.floor(steps)
        up[g.tiny] = np.rint(steps) != below
        off[g.tiny] = steps != below
    # UP names the neighbour above x: away from zero when x is positive;
    # IGNORE takes the nearest.
    # (plain ufuncs: masked ones, ``where=``, are several times slower per element)
    take = (c == UP) ^ np.signbit(g.arr)
    take ^= (take ^ up) & (c == IGNORE)
    take &= off
    corrections = int(np.count_nonzero(take ^ up))
    step = take.astype(np.uint64)
    step <<= grid.drop
    toward += step
    replayed = toward.view(np.float64)
    if g.tiny is not None:
        replayed[g.tiny] = np.copysign((below + take[g.tiny]) * grid.unit, g.arr[g.tiny])
    return g.checked(replayed), corrections


def rev_array(x, b_r: int, codes) -> np.ndarray:
    """Replay rounding with recorded codes.

    Where the natural nearest rounding already agrees with the code (or
    the code is 1), this is plain ``rnd_array``. Where the code points the other
    way, the adjacent grid value on the coded side of x is taken instead.
    """
    return replay(x, b_r, codes)[0]
