"""Grid helpers that the tests check ``vtrain.fpround`` against.

Nothing in the package needs them: the protocol runs only ``rnd_array``,
``round_and_code`` and ``replay``. They are built from float arithmetic
and FP32 conversion, not from the kernels' bit split, so they are
independent checks of it. ``frexp_scale`` is the exponent scale from
``np.frexp``; floored at 2^-126 it is ``fpround.exponent_scale_array``.
"""

from __future__ import annotations

import numpy as np

from vtrain import fpround as fp


def epsilon(b_r: int, exponent_scale: float) -> float:
    """Grid spacing at the given exponent scale: exponent_scale * 2^(9 - b_r)."""
    fp.tau_bounds(b_r)  # checks b_r
    return exponent_scale * 2.0 ** (9 - b_r)


def frexp_scale(x) -> np.ndarray:
    """2^E per element, where 1 <= |x| / 2^E < 2, from ``np.frexp``; zero maps
    to 2^-126. Not floored: an FP64 subnormal keeps its own binade."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(arr).all():
        raise fp.OutOfRange("non-finite value")
    _, e = np.frexp(arr)
    scale = np.ldexp(1.0, e - 1)
    out = np.where(arr == 0.0, fp.SCALE_FLOOR, scale)
    return out.reshape(np.shape(x)) if np.shape(x) else out


def grid_neighbors_array(x, b_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest grid value <= x and smallest grid value >= x, per element.

    The spacing is a power of two, so dividing by it, floor, ceil and
    multiplying back are all exact. Below 2^-126 the spacing is that of
    the bottom normal binade, as on the FP32-subnormal grid.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    spacing = epsilon(b_r, np.maximum(frexp_scale(arr), fp.SCALE_FLOOR))
    below = np.floor(arr / spacing) * spacing
    above = np.ceil(arr / spacing) * spacing
    if max(np.abs(below).max(initial=0.0), np.abs(above).max(initial=0.0)) > fp.grid_max(b_r):
        raise fp.OutOfRange("out of representable range")
    return below, above


def is_on_grid(x, b_r: int) -> np.ndarray:
    """Boolean per element: finite, exactly FP32-representable, low bits clear."""
    fp.tau_bounds(b_r)  # checks b_r
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    as32 = arr.astype(np.float32)
    exact = np.isfinite(as32) & (as32.astype(np.float64) == arr)
    low_mask = np.uint32((1 << (32 - b_r)) - 1) if b_r < 32 else np.uint32(0)
    clear = (as32.view(np.uint32) & low_mask) == np.uint32(0)
    out = exact & clear
    return out.reshape(np.shape(x)) if np.shape(x) else out
