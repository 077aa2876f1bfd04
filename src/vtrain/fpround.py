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
views of these two kernels, and ``rnd_array`` and ``grid_neighbors_array``
use the same bit split.
"""

from __future__ import annotations

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


def _require_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value")


class _GridBits:
    """One bit split of float64 values against the b_r grid.

    This is the only code that knows the bit layout. Per element it holds
    the sign bit, the magnitude bits of the grid point truncated toward
    zero (``toward``) and of the next one away from zero (``away``, equal
    to ``toward`` on the grid), and ``up``, true where nearest rounding
    (ties to the even kept bit) takes ``away``. Below 2^-126 the grid is
    absolute (FP32-subnormal spacing), so the mantissa shift does not
    apply there; those elements are recomputed by scaling, and only when
    the input has one.
    """

    _MAG = np.uint64((1 << 63) - 1)
    _EXPONENT = np.uint64(0x7FF << 52)
    _FLOOR = np.float64(SCALE_FLOOR).view(np.uint64)

    def __init__(self, x, b_r: int):
        _check_b(b_r)
        self.b_r = b_r
        self.arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        _require_finite(self.arr)
        bits = self.arr.view(np.uint64)
        self.mag = bits & self._MAG
        self.sign = bits ^ self.mag
        self.neg = np.signbit(self.arr)

        # Normal FP32 range: one rounding of the FP64 significand. Working
        # on the magnitude bit pattern lets the mantissa carry roll into the
        # exponent field, which is exactly the right behaviour at binade
        # edges.
        drop = 52 - (b_r - 9)
        low_mask = np.uint64((1 << drop) - 1)
        low = self.mag & low_mask
        self.toward = self.mag ^ low
        self.away = (self.mag + low_mask) & ~low_mask
        kept_lsb = (self.mag >> np.uint64(drop)) & np.uint64(1)
        self.up = (low + kept_lsb) > np.uint64(1 << (drop - 1))

        tiny = (self.mag - np.uint64(1)) < self._FLOOR - np.uint64(1)  # 0 < |x| < 2^-126
        if tiny.any():
            # Scaling by a power of two is exact here, as are floor, ceil
            # and rint on values below 2^23.
            q_log2 = (32 - b_r) - 149
            s = self.mag[tiny].view(np.float64) * 2.0 ** -q_log2
            below = np.floor(s)
            self.toward[tiny] = (below * 2.0 ** q_log2).view(np.uint64)
            self.away[tiny] = (np.ceil(s) * 2.0 ** q_log2).view(np.uint64)
            self.up[tiny] = np.rint(s) != below

    def exponent_scale(self) -> np.ndarray:
        """2^E per element (1 <= |x| / 2^E < 2), floored at 2^-126."""
        return np.maximum(self.mag & self._EXPONENT, self._FLOOR).view(np.float64)

    def values(self, mag: np.ndarray) -> np.ndarray:
        """Signed values with the given magnitude bits; none may pass grid_max."""
        if mag.view(np.float64).max(initial=0.0) > grid_max(self.b_r):
            raise ValueError("out of representable range")
        return (self.sign | mag).view(np.float64)


def rnd_array(x, b_r: int) -> np.ndarray:
    """Round each element onto the b_r grid (nearest, ties to even)."""
    g = _GridBits(x, b_r)
    return g.values(np.where(g.up, g.away, g.toward))


def round_and_code(x, b_r: int, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The trainer's pass: ``rnd_array`` and ``direction_array`` from one bit split."""
    g = _GridBits(x, b_r)
    rounded = g.values(np.where(g.up, g.away, g.toward))
    # r - x is exact (Sterbenz), and |r - x| > t splits into r - x > t (UP)
    # and r - x < -t (DOWN); the two comparisons sum to DOWN, IGNORE or UP.
    d = rounded - g.arr
    t = g.exponent_scale() * np.float64(tau)
    codes = (d > t).view(np.uint8) + (d >= -t).view(np.uint8)
    return rounded, codes


def epsilon(b_r: int, exponent_scale: float) -> float:
    """Grid spacing at the given exponent scale: exponent_scale * 2^(9 - b_r)."""
    _check_b(b_r)
    return exponent_scale * 2.0 ** (9 - b_r)


def exponent_scale_array(x) -> np.ndarray:
    """2^E per element, where 1 <= |x| / 2^E < 2. Zero maps to 2^-126."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    _require_finite(arr)
    _, e = np.frexp(arr)
    scale = np.ldexp(1.0, e - 1)
    out = np.where(arr == 0.0, SCALE_FLOOR, scale)
    return out.reshape(np.shape(x)) if np.shape(x) else out


def direction_array(x, b_r: int, tau: float) -> np.ndarray:
    """Ternary code per element: 2 up, 0 down, 1 within tau of the grid.

    The comparison scale is the element's exponent scale floored at
    2^-126, so FP32-subnormal values use the bottom normal binade's scale.
    """
    return round_and_code(x, b_r, tau)[1]


def grid_neighbors_array(x, b_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest grid value <= x and smallest grid value >= x, per element."""
    g = _GridBits(x, b_r)
    return (g.values(np.where(g.neg, g.away, g.toward)),
            g.values(np.where(g.neg, g.toward, g.away)))


def replay(x, b_r: int, codes) -> tuple[np.ndarray, int]:
    """The auditor's pass: ``rev_array`` and its correction count from one bit split.

    Where the code points against nearest rounding, the result is the grid
    neighbour the code names; everywhere else it is ``rnd_array``. The count is
    the number of elements moved off their nearest grid point.
    """
    g = _GridBits(x, b_r)
    c = np.atleast_1d(np.asarray(codes))
    if c.shape != g.arr.shape:
        raise ValueError(f"codes shape {c.shape} does not match values shape {g.arr.shape}")
    if c.size and (c.min() < DOWN or c.max() > UP):
        raise ValueError("invalid direction code")
    # UP names the neighbour above x: away from zero when x is positive.
    take_away = np.where(c == IGNORE, g.up, (c == UP) != g.neg)
    moved = (take_away != g.up) & (g.away != g.toward)
    return g.values(np.where(take_away, g.away, g.toward)), int(np.count_nonzero(moved))


def rev_array(x, b_r: int, codes) -> np.ndarray:
    """Replay rounding with recorded codes.

    Where the natural nearest rounding already agrees with the code (or
    the code is 1), this is plain ``rnd_array``. Where the code points the other
    way, the adjacent grid value on the coded side of x is taken instead.
    """
    return replay(x, b_r, codes)[0]


def is_on_grid(x, b_r: int) -> np.ndarray:
    """Boolean per element: finite, exactly FP32-representable, low bits clear."""
    _check_b(b_r)
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    as32 = arr.astype(np.float32)
    exact = np.isfinite(as32) & (as32.astype(np.float64) == arr)
    low_mask = np.uint32((1 << (32 - b_r)) - 1) if b_r < 32 else np.uint32(0)
    clear = (as32.view(np.uint32) & low_mask) == np.uint32(0)
    out = exact & clear
    return out.reshape(np.shape(x)) if np.shape(x) else out
