"""Grid arithmetic: examples, oracle agreement, and invariants."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtrain import fpround as fp

from grid_oracle import epsilon, frexp_scale, grid_neighbors_array, is_on_grid

B_VALUES = (10, 26, 29, 32)


def oracle_neighbors(x: float, b_r: int) -> tuple[float, float]:
    """Independent neighbor oracle built on FP32 bit masking and stepping.

    Mask the low ``32 - b_r`` bits of the FP32 value nearest x, step the
    masked bit pattern by whole grid spacings on both sides to collect
    candidate grid points, then pick the tightest bracket by comparison
    only.
    """
    unit = 1 << (32 - b_r)
    seed = int(np.abs(np.float32(x)).view(np.uint32)) & ~(unit - 1)
    candidates = set()
    for k in range(-2, 3):
        pattern = seed + k * unit
        if 0 <= pattern <= 0x7F7FFFFF:  # finite FP32 magnitudes
            v = float(np.uint32(pattern).view(np.float32))
            candidates.update((v, -v))
    below = max(c for c in candidates if c <= x)
    above = min(c for c in candidates if c >= x)
    return below, above


def oracle_rnd(x: float, b_r: int) -> float:
    """Nearest of the two bracketing grid points, ties to the even kept bit."""
    below, above = oracle_neighbors(x, b_r)
    if below == above:
        return below
    d_lo, d_hi = x - below, above - x
    if d_lo < d_hi:
        return below
    if d_hi < d_lo:
        return above
    kept_lsb = np.uint32(1 << (32 - b_r))
    lo_even = (np.abs(np.float32(below)).view(np.uint32) & kept_lsb) == 0
    return below if lo_even else above


class TestRnd:
    def test_zero_on_every_grid(self):
        for b in B_VALUES:
            assert fp.rnd_array(0.0, b).tolist() == [0.0]

    def test_fp32_values_are_fixed_points(self):
        # bit pattern 00111110010011001100110011001101 is float32(0.2)
        x = float(np.uint32(0b00111110010011001100110011001101).view(np.float32))
        assert fp.rnd_array(x, 32).tolist() == [x]

    def test_tie_rounds_to_even(self):
        # 1 + 2^-24 sits exactly between 1.0 and 1 + 2^-23; 1.0 has the even bit
        assert fp.rnd_array(1.0 + 2.0**-24, 32).tolist() == [1.0]

    def test_sign_symmetry(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=2000) * np.exp2(rng.integers(-40, 38, size=2000))
        for b in B_VALUES:
            assert np.array_equal(fp.rnd_array(-xs, b), -fp.rnd_array(xs, b))

    def test_idempotent_and_on_grid(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=20000) * np.exp2(rng.integers(-60, 38, size=20000))
        for b in B_VALUES:
            r = fp.rnd_array(xs, b)
            assert np.array_equal(fp.rnd_array(r, b), r)
            assert is_on_grid(r, b).all()

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        xs = np.concatenate([
            rng.normal(size=300) * np.exp2(rng.integers(-30, 30, size=300)),
            1.0 + rng.integers(0, 8, size=100) * 2.0**-25,
            rng.normal(size=50) * 1e-40,  # FP32-subnormal region
        ])
        for b in (26, 29, 32):
            want = [oracle_rnd(float(x), b) for x in xs]
            assert fp.rnd_array(xs, b).tolist() == want, b

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fp.rnd_array(bad, 32)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="out of representable range"):
            fp.rnd_array(1e39, 32)

    def test_bad_b_rejected(self):
        for b in (9, 33, 0):
            with pytest.raises(ValueError):
                fp.rnd_array(1.0, b)

    def test_monotone_coarsening(self):
        # the coarse grid is a subset of every finer grid
        rng = np.random.default_rng(10)
        xs = rng.normal(size=5000) * np.exp2(rng.integers(-20, 20, size=5000))
        for b_coarse, b_fine in ((26, 29), (26, 32), (29, 32), (10, 26)):
            coarse = fp.rnd_array(xs, b_coarse)
            assert is_on_grid(coarse, b_fine).all()
            assert np.array_equal(fp.rnd_array(coarse, b_fine), coarse)

    def test_distance_bound(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=20000) * np.exp2(rng.integers(-50, 38, size=20000))
        for b in B_VALUES:
            r = fp.rnd_array(xs, b)
            scale = fp.exponent_scale_array(r)
            assert np.all(np.abs(r - xs) <= 0.5 * epsilon(b, 1.0) * scale)


class TestEpsilonAndScale:
    def test_epsilon_values(self):
        assert epsilon(32, 1.0) == 2.0**-23
        assert epsilon(26, 1.0) == 2.0**-17
        assert epsilon(32, 2.0) == 2.0**-22

    def test_exponent_scale_examples(self):
        got = fp.exponent_scale_array([1.5, 0.2, -6.0, 0.0])
        assert got.tolist() == [1.0, 0.125, 4.0, 2.0**-126]

    def test_exponent_scale_bracket(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=5000) * np.exp2(rng.integers(-100, 100, size=5000))
        xs = xs[xs != 0]
        for scale in (fp.exponent_scale_array(xs), frexp_scale(xs)):
            ratio = np.abs(xs) / scale
            assert np.all((ratio >= 1.0) & (ratio < 2.0))

    def test_exponent_scale_is_the_floored_frexp_scale(self):
        floor = fp.SCALE_FLOOR
        gm = fp.grid_max(32)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 12345, 2.0**-1022 * (1 - 2.0**-52),
                 2.0**-1022, 2.0**-1000, floor, -floor, np.nextafter(floor, 0.0),
                 np.nextafter(floor, 1.0), -np.nextafter(floor, 0.0), floor * 0.75,
                 floor / 2, 2.0**-149, gm, -gm, 1.0, -1.5, np.nextafter(2.0, 0.0)]
        xs = np.array(edges)
        want = np.maximum(frexp_scale(xs), floor)
        got = fp.exponent_scale_array(xs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert fp.exponent_scale_array(floor / 2).tolist() == [floor]
        assert fp.exponent_scale_array(xs.reshape(3, 7)).shape == (3, 7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_exponent_scale_rejects_non_finite(self, bad):
        with pytest.raises(fp.OutOfRange, match="non-finite"):
            fp.exponent_scale_array([1.0, bad])
        with pytest.raises(fp.OutOfRange, match="non-finite"):
            fp.exponent_scale_array(bad)


class TestDirection:
    TAU = 0.25 * 2.0**-23

    def test_on_grid_is_ignore(self):
        values = [0.0, 1.0, -2.5, float(np.float32(0.1))]
        assert fp.direction_array(values, 32, self.TAU).tolist() == [fp.IGNORE] * 4

    def test_distance_exactly_tau_is_ignore(self):
        # the logging test is strict: a value exactly tau from its grid
        # point stays in the ignore band
        assert fp.direction_array(1.0 + 0.75 * 2.0**-23, 32, self.TAU).tolist() == [fp.IGNORE]

    def test_up_and_down(self):
        values = [1.0 + 0.6 * 2.0**-23, 1.0 + 0.4 * 2.0**-23]
        assert fp.direction_array(values, 32, self.TAU).tolist() == [fp.UP, fp.DOWN]

    def test_zero_is_ignore(self):
        assert fp.direction_array(0.0, 26, self.TAU).tolist() == [fp.IGNORE]

    def test_params_validation(self):
        # the tau range is checked through TrainConfig (test_protocol)
        with pytest.raises(ValueError):
            fp.check_b_tr(32, 32, self.TAU, fan_in=2)

    def test_training_precision_validation(self):
        # one add: fan-in 2
        tau = self.TAU
        fp.check_b_tr(50, 32, tau, fan_in=2)
        # the kept mantissa (b_tr - 12 bits) must be wider than the grid's 23
        with pytest.raises(ValueError):
            fp.check_b_tr(35, 32, tau, fan_in=2)
        fp.check_b_tr(38, 26, tau, fan_in=2)
        # one add's noise, 2^-(b_tr - 12), must stay under tau = 2^-25
        with pytest.raises(ValueError):
            fp.check_b_tr(37, 26, tau, fan_in=2)
        with pytest.raises(ValueError):
            fp.check_b_tr(50, 32, 0.0, fan_in=2)
        with pytest.raises(ValueError):
            fp.check_b_tr(65, 32, tau, fan_in=2)

    def test_check_b_tr_fan_in(self):
        tau = 0.25 * 2.0**-23
        fp.check_b_tr(50, 32, tau, fan_in=256)
        fp.check_b_tr(45, 32, tau, fan_in=256)  # 255 * 2^-33 just under 2^-25
        with pytest.raises(ValueError):
            fp.check_b_tr(44, 32, tau, fan_in=256)
        fp.check_b_tr(64, 32, 0.0, fan_in=1 << 30)  # exact FP64 adds are not bounded


class TestNeighbors:
    def test_grid_point_brackets_itself(self):
        g = fp.rnd_array(0.37, 30)
        below, above = grid_neighbors_array(g, 30)
        assert below.tolist() == above.tolist() == g.tolist()

    def test_midpoint_example(self):
        below, above = grid_neighbors_array(1.0 + 0.5 * 2.0**-23, 32)
        assert below.tolist() == [1.0]
        assert above.tolist() == [1.0 + 2.0**-23]

    def test_sign_symmetry(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=3000) * np.exp2(rng.integers(-45, 30, size=3000))
        for b in B_VALUES:
            below, above = grid_neighbors_array(xs, b)
            nbelow, nabove = grid_neighbors_array(-xs, b)
            assert np.array_equal(nbelow, -above)
            assert np.array_equal(nabove, -below)

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=200) * np.exp2(rng.integers(-30, 30, size=200))
        for b in (26, 32):
            below, above = grid_neighbors_array(xs, b)
            got = list(zip(below.tolist(), above.tolist()))
            assert got == [oracle_neighbors(float(x), b) for x in xs]

    def test_bracket_and_membership(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=20000) * np.exp2(rng.integers(-60, 38, size=20000))
        for b in B_VALUES:
            below, above = grid_neighbors_array(xs, b)
            assert np.all(below <= xs) and np.all(above >= xs)
            assert is_on_grid(below, b).all() and is_on_grid(above, b).all()
            r = fp.rnd_array(xs, b)
            assert np.all((r == below) | (r == above))


class TestRev:
    def test_ignore_defers_to_rnd(self):
        rng = np.random.default_rng(16)
        xs = rng.normal(size=5000)
        for b in B_VALUES:
            codes = np.full(xs.shape, fp.IGNORE, dtype=np.uint8)
            assert np.array_equal(fp.rev_array(xs, b, codes), fp.rnd_array(xs, b))

    def test_forced_up_example(self):
        # naturally rounds down to 1.0; the recorded direction overrides
        assert fp.rev_array(1.0 + 0.4 * 2.0**-23, 32, fp.UP).tolist() == [1.0 + 2.0**-23]

    def test_agreeing_up_example(self):
        assert fp.rev_array(1.0 + 0.6 * 2.0**-23, 32, fp.UP).tolist() == [1.0 + 2.0**-23]

    def test_forced_down(self):
        assert fp.rev_array(1.0 + 0.6 * 2.0**-23, 32, fp.DOWN).tolist() == [1.0]

    def test_on_grid_never_corrected(self):
        g = fp.rnd_array(3.7, 28)[0]
        codes = np.asarray([fp.DOWN, fp.IGNORE, fp.UP])
        assert fp.rev_array([g] * 3, 28, codes).tolist() == [g] * 3

    def test_output_is_bracketing_grid_point(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=10000) * np.exp2(rng.integers(-40, 30, size=10000))
        codes = rng.integers(0, 3, size=10000).astype(np.uint8)
        for b in (26, 29, 32):
            out = fp.rev_array(xs, b, codes)
            below, above = grid_neighbors_array(xs, b)
            assert np.all((out == below) | (out == above))

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            fp.rev_array(1.5, 32, 3)


def _sync_check(b_r: int, tau: float, n: int, seed: int) -> None:
    """Perturbations within the guarantee stay replayable to the same point."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * np.exp2(rng.integers(-30, 30, size=n))
    scale = fp.exponent_scale_array(x)
    bound = np.minimum(0.25 * epsilon(b_r, 1.0) * scale, tau * scale)
    x_p = x + rng.uniform(-1.0, 1.0, size=n) * bound
    keep = (
        (np.abs(x_p - x) < bound)
        & (fp.exponent_scale_array(x_p) == fp.exponent_scale_array(x))
    )
    x, x_p = x[keep], x_p[keep]
    codes = fp.direction_array(x, b_r, tau)
    assert np.array_equal(
        fp.rev_array(x_p, b_r, codes), fp.rev_array(x, b_r, codes)
    )


@pytest.mark.parametrize("b_r", (26, 29, 32))
def test_sync_property(b_r):
    tau = 0.25 * 2.0**-23
    _sync_check(b_r, tau, 200000, seed=b_r)
    # also at the largest threshold that keeps the replay guarantee
    _sync_check(b_r, 0.25 * epsilon(b_r, 1.0), 200000, seed=100 + b_r)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-1e38, max_value=1e38, allow_nan=False),
    b_r=st.sampled_from(B_VALUES),
)
def test_rnd_hypothesis_invariants(x, b_r):
    r = fp.rnd_array(x, b_r)
    assert np.array_equal(fp.rnd_array(r, b_r), r)
    assert is_on_grid(r, b_r).all()
    assert np.array_equal(fp.rnd_array(-x, b_r), -r)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
    c=st.sampled_from((0, 1, 2)),
    b_r=st.sampled_from(B_VALUES),
)
def test_rev_hypothesis_membership(x, c, b_r):
    out = fp.rev_array(x, b_r, c)
    below, above = grid_neighbors_array(x, b_r)
    assert out[0] in (below[0], above[0])


def test_rev_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        fp.rev_array(np.zeros(4), 32, np.zeros(3, dtype=np.uint8))


def oracle_code(x: float, b_r: int, tau: float) -> int:
    """Direction code from oracle_rnd and the frexp exponent scale, floored at 2^-126."""
    r = oracle_rnd(x, b_r)
    scale = max(frexp_scale(x)[0], fp.SCALE_FLOOR)
    if abs(x - r) <= tau * scale:
        return fp.IGNORE
    return fp.UP if x < r else fp.DOWN


def oracle_rev(x: float, b_r: int, c: int) -> float:
    """The neighbour the code names; nearest rounding for IGNORE."""
    below, above = oracle_neighbors(x, b_r)
    return {fp.DOWN: below, fp.IGNORE: oracle_rnd(x, b_r), fp.UP: above}[c]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def grid_value(draw, b_r):
    """A value within grid_max: anywhere, at exact ties on even and odd kept
    bits, just below a binade (carries), in the FP32-subnormal range, or at
    +-0, +-2^-126 and +-grid_max."""
    kept = b_r - 9
    gm = fp.grid_max(b_r)
    frac = st.one_of(st.sampled_from((0.0, 0.5, 0.25, 0.75)),
                     st.floats(0.0, 1.0, exclude_max=True))
    sign = draw(st.sampled_from((1.0, -1.0)))
    kind = draw(st.sampled_from(("any", "grid", "carry", "subnormal", "special")))
    if kind == "any":
        return draw(st.floats(-gm, gm, allow_nan=False))
    if kind == "grid":
        m = draw(st.integers(1 << kept, (2 << kept) - 1))
        x = (m + draw(frac)) * 2.0 ** (draw(st.integers(-126, 127)) - kept)
    elif kind == "carry":
        x = ((2 << kept) - 1 + draw(frac)) * 2.0 ** (draw(st.integers(-126, 126)) - kept)
    elif kind == "subnormal":
        x = (draw(st.integers(0, (1 << kept) - 1)) + draw(frac)) * 2.0 ** (-126 - kept)
    else:
        x = draw(st.sampled_from((0.0, 2.0 ** -126, gm)))
    return sign * x if abs(x) <= gm else sign * gm


@st.composite
def kernel_case(draw):
    b_r = draw(st.sampled_from((10, 26, 32)))
    xs = draw(st.lists(grid_value(b_r), min_size=1, max_size=12))
    codes = draw(st.lists(st.sampled_from((fp.DOWN, fp.IGNORE, fp.UP)),
                          min_size=len(xs), max_size=len(xs)))
    lo, hi = fp.tau_bounds(b_r)
    tau = draw(st.sampled_from((0.0, lo, hi)))
    return b_r, xs, codes, tau


@settings(max_examples=400, deadline=None)
@given(case=kernel_case())
# FP32-subnormal, nearest is -unit, UP names -0.0: the move keeps the sign
@example(case=(10, [-0.75 * 2.0 ** -127], [fp.UP], 0.0))
def test_kernels_match_oracles(case):
    b_r, xs, codes, tau = case
    x = np.asarray(xs)
    # the grid point keeps the sign of x, zero included
    nearest = np.copysign([oracle_rnd(v, b_r) for v in xs], x)
    rounded, got_codes, directed = fp.round_and_code(x, b_r, tau)
    assert np.array_equal(bits(rounded), bits(nearest))
    assert got_codes.tolist() == [oracle_code(v, b_r, tau) for v in xs]
    assert directed == int(np.count_nonzero(got_codes != fp.IGNORE))

    replayed, corrections = fp.replay(x, b_r, np.asarray(codes, dtype=np.uint8))
    want = np.copysign([oracle_rev(v, b_r, c) for v, c in zip(xs, codes)], x)
    assert np.array_equal(bits(replayed), bits(want))
    assert corrections == int(np.count_nonzero(want != nearest))

    # replaying the trainer's own codes lands on its rounding, uncorrected
    own, n = fp.replay(x, b_r, got_codes)
    assert np.array_equal(bits(own), bits(nearest)) and n == 0


@settings(max_examples=100, deadline=None)
@given(case=kernel_case(), bad=st.sampled_from((3, 4, 255, -1)))
def test_replay_rejects_invalid_codes(case, bad):
    b_r, xs, codes, _ = case
    codes[len(codes) // 2] = bad
    with pytest.raises(ValueError, match="invalid direction code"):
        fp.replay(np.asarray(xs), b_r, np.asarray(codes))


def test_replay_rejects_wrong_code_shape():
    x = np.zeros((4, 3))
    for shape in ((12,), (3, 4), (4, 2), (4, 3, 1)):
        with pytest.raises(ValueError, match="shape"):
            fp.replay(x, 32, np.ones(shape, dtype=np.uint8))


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.float64])
def test_replay_refuses_codes_out_of_range_in_every_dtype(dtype):
    x = np.linspace(-2.0, 2.0, 8)
    if dtype == np.float64:
        # values that are not codes, between the codes or not numbers at all
        bad = (0.5, 1.5, np.nan, np.inf, -np.inf, 3.0, -1.0)
    else:
        info = np.iinfo(dtype)
        bad = (3, info.max) + ((-1, info.min) if info.min < 0 else ())
    for code in bad:
        codes = np.ones(8, dtype=dtype)
        codes[5] = code
        with pytest.raises(ValueError, match="invalid direction code"):
            fp.replay(x, 32, codes)
    with pytest.raises(ValueError, match="shape"):
        fp.replay(x, 32, np.ones(7, dtype=dtype))
    assert fp.replay(x, 32, np.array([0, 1, 2] * 2 + [0, 1], dtype=dtype))[0].shape == (8,)


@pytest.mark.parametrize("b_r", [26, 32])
def test_grid_bits_refuse_non_finite_and_past_grid_max(b_r):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(fp.OutOfRange, match="non-finite"):
            fp._GridBits(np.array([[1.0], [bad]]), b_r)
    # below 2^128 the rounded result is checked against grid_max
    below = fp.grid_max(b_r) + 0.75 * 2.0 ** (127 - (b_r - 9))  # nearest is 2^128
    for x in (below, -below, np.array([[0.5], [below]])):
        g = fp._GridBits(x, b_r)
        with pytest.raises(fp.OutOfRange, match="out of representable range"):
            g.nearest(np.empty_like(g.bits))
    # from 2^128 on the split itself refuses the values
    past = fp.grid_max(b_r) + 0.75 * 2.0 ** (128 - (b_r - 9))
    for x in (past, -2.0 ** 128, np.array([[0.5], [np.finfo(np.float64).max]])):
        with pytest.raises(fp.OutOfRange, match="out of representable range"):
            fp._GridBits(x, b_r)


def test_kernels_keep_shape_and_checks():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    rounded, codes, directed = fp.round_and_code(x, 26, 0.0)
    assert rounded.shape == codes.shape == (3, 4) and codes.dtype == np.uint8
    assert directed == int(np.count_nonzero(codes != fp.IGNORE)) and type(directed) is int
    replayed, _ = fp.replay(x, 26, codes)
    assert replayed.shape == (3, 4)
    for bad_b in (9, 33):
        with pytest.raises(ValueError, match="b_r"):
            fp.round_and_code(x, bad_b, 0.0)
        with pytest.raises(ValueError, match="b_r"):
            fp.replay(x, bad_b, codes)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            fp.round_and_code(np.asarray([1.0, bad]), 32, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            fp.replay(np.asarray([1.0, bad]), 32, np.ones(2, dtype=np.uint8))


class TestRepresentableRange:
    """Both parties check the value they keep against grid_max."""

    TAU = 0.25 * 2.0**-23

    def test_value_just_past_grid_max_replays_to_grid_max(self):
        for b in (26, 32):
            gm = fp.grid_max(b)
            for x in (gm * (1 + 2.0**-30), -gm * (1 + 2.0**-30)):
                rounded, codes, _ = fp.round_and_code(x, b, self.TAU)
                assert rounded[0] == np.copysign(gm, x)
                replayed, corrections = fp.replay(x, b, codes)
                assert (replayed[0], corrections) == (np.copysign(gm, x), 0)
                assert fp.rev_array(x, b, codes).tolist() == [np.copysign(gm, x)]
                assert fp.rnd_array(x, b).tolist() == [np.copysign(gm, x)]

    def test_kept_value_past_grid_max_rejected(self):
        b = 32
        gm = fp.grid_max(b)
        near = gm * (1 + 2.0**-30)  # nearest is grid_max, the neighbour above is 2^128
        beyond = gm + 0.75 * 2.0**104  # 3/4 of a grid step past grid_max: nearest is 2^128
        calls = [
            lambda: fp.rnd_array(beyond, b),
            lambda: fp.round_and_code(beyond, b, self.TAU),
            lambda: fp.replay(beyond, b, [fp.IGNORE]),
            lambda: fp.rev_array(near, b, fp.UP),
            lambda: fp.rev_array(-near, b, fp.DOWN),
            lambda: grid_neighbors_array(near, b),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="out of representable range"):
                call()


def edge_values(b_r: int) -> np.ndarray:
    """Values where the bit split has a special case, both signs: +-0, the
    FP32-subnormal range (ties included, and the tie that rounds up to
    2^-126), FP64 subnormals, ties at the bottom and the top of a binade
    (the top one carries into the next binade), and values that round to
    grid_max."""
    kept = b_r - 9
    top = (2 << kept) - 1  # the largest kept significand
    gm = fp.grid_max(b_r)
    mags = [0.0, 5e-324, 1e-310, 2.0 ** -126, 2.0 ** -127]
    for m in (0.5, 1.0, 1.5, 2.5, 3.25, (1 << kept) - 0.5, (1 << kept) - 0.25):
        mags.append(m * 2.0 ** (-126 - kept))  # FP32-subnormal spacing
    for e in (-126, -60, -1, 0, 1, 60, 126):
        mags += [((1 << kept) + f) * 2.0 ** (e - kept) for f in (0.5, 1.5, 0.25, 0.75)]
        mags += [(top + f) * 2.0 ** (e - kept) for f in (0.5, 0.25, 0.75)]
    mags += [gm, gm - 0.25 * 2.0 ** (127 - kept)]
    mags = np.asarray(mags)
    return np.concatenate([mags, -mags])


@pytest.mark.parametrize("b_r", range(26, 33))
def test_kernels_match_oracles_on_edge_values(b_r):
    x = edge_values(b_r)
    tau = fp.tau_bounds(b_r)[0]
    nearest = np.copysign([oracle_rnd(v, b_r) for v in x.tolist()], x)
    assert np.array_equal(bits(fp.rnd_array(x, b_r)), bits(nearest))
    rounded, codes, directed = fp.round_and_code(x, b_r, tau)
    assert np.array_equal(bits(rounded), bits(nearest))
    assert codes.tolist() == [oracle_code(v, b_r, tau) for v in x.tolist()]
    assert directed == int(np.count_nonzero(codes != fp.IGNORE))
    given = np.resize([fp.DOWN, fp.IGNORE, fp.UP], x.size).astype(np.uint8)
    replayed, corrections = fp.replay(x, b_r, given)
    want = np.copysign([oracle_rev(v, b_r, c) for v, c in zip(x.tolist(), given.tolist())], x)
    assert np.array_equal(bits(replayed), bits(want))
    assert corrections == int(np.count_nonzero(want != nearest))


@pytest.mark.parametrize("b_r", range(26, 33))
def test_kernels_round_to_grid_max_and_refuse_past_it(b_r):
    gm = fp.grid_max(b_r)
    for x in (gm * (1 + 2.0 ** -30), -gm * (1 + 2.0 ** -30)):  # nearest is grid_max
        assert fp.rnd_array(x, b_r).tolist() == [np.copysign(gm, x)]
        rounded, codes, directed = fp.round_and_code(x, b_r, fp.tau_bounds(b_r)[0])
        assert (rounded.tolist(), codes.tolist()) == ([np.copysign(gm, x)], [fp.IGNORE])
        assert directed == 0
        replayed, corrections = fp.replay(x, b_r, codes)
        assert (replayed.tolist(), corrections) == ([np.copysign(gm, x)], 0)
    past = fp.grid_max(b_r) + 0.75 * 2.0 ** (128 - (b_r - 9))  # nearest is 2^128
    ones = np.ones(2, dtype=np.uint8)
    kernels = [lambda x: fp.rnd_array(x, b_r), lambda x: fp.round_and_code(x, b_r, 0.0),
               lambda x: fp.replay(x, b_r, ones)]
    for kernel in kernels:
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(fp.OutOfRange, match="non-finite"):
                kernel(np.asarray([1.0, bad]))
        for bad in (past, -past):
            with pytest.raises(fp.OutOfRange, match="out of representable range"):
                kernel(np.asarray([1.0, bad]))


@pytest.mark.parametrize("b_r", range(fp.MIN_B, fp.MAX_B + 1))
def test_kernels_refuse_magnitudes_where_the_split_would_overflow(b_r):
    # x * (2^s + 1) overflows past about 2^(1024 - s) and the split gives
    # NaN, which no comparison with grid_max catches; every kernel refuses
    # these magnitudes, and without a numpy warning.
    top = np.finfo(np.float64).max
    ones = np.ones(2, dtype=np.uint8)
    kernels = [lambda x: fp.rnd_array(x, b_r), lambda x: fp.round_and_code(x, b_r, 0.0),
               lambda x: fp.replay(x, b_r, ones)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in kernels:
            for big in (2.0 ** 128, 2.0 ** (1024 - (61 - b_r)), 1e300, top):
                for bad in (big, -big):
                    with pytest.raises(fp.OutOfRange, match="out of representable range"):
                        kernel(np.asarray([1.0, bad]))



def move_values(b_r: int) -> np.ndarray:
    """Values off the grid, both signs, whose neighbours lie where a replay's
    one-step move meets a special case: on either side of a power of two
    (the move crosses the binade edge, down or up), 2^-126 included, where
    the spacing below is absolute; the FP32-subnormal range, where a move
    may land on +-0; and just below grid_max. Fractions of a quarter, a half
    (ties) and three quarters of a step."""
    kept = b_r - 9
    unit = 2.0 ** ((32 - b_r) - 149)
    gm = fp.grid_max(b_r)
    fracs = np.array([0.25, 0.5, 0.75])
    mags = []
    for k in (-126, -125, -1, 0, 1, 127):
        mags += list(2.0 ** k - fracs * 2.0 ** (max(k - 1, -126) - kept))
        mags += list(2.0 ** k + fracs * 2.0 ** (k - kept))
    for m in (0, 1, 2, 3, (1 << kept) - 1):
        mags += list((m + fracs) * unit)
    mags += list(gm - fracs * 2.0 ** (127 - kept))
    mags = np.asarray(mags)
    return np.concatenate([mags, -mags])


@pytest.mark.parametrize("b_r", range(fp.MIN_B, fp.MAX_B + 1))
def test_replay_moves_one_step_only_where_the_code_names_the_other_neighbour(b_r):
    x = move_values(b_r)
    nearest = np.copysign([oracle_rnd(v, b_r) for v in x.tolist()], x)
    codes = np.where(nearest > x, fp.DOWN, fp.UP).astype(np.uint8)
    below, above = grid_neighbors_array(x, b_r)
    # the grid neighbour the code names, with x's sign when it is zero
    want = np.copysign(np.where(codes == fp.UP, above, below), x)
    assert np.count_nonzero(want == 0.0) == 2 and not np.any(want == nearest)
    rows = [a.reshape(2, -1) for a in (x, codes, want)]
    for xs, cs, ws in ((x, codes, want), rows, [a.T for a in rows]):
        replayed, corrections = fp.replay(xs, b_r, cs)
        assert replayed.shape == xs.shape
        assert np.array_equal(bits(replayed), bits(ws))
        assert corrections == x.size
    # a move up from grid_max passes it, in either sign
    gm = fp.grid_max(b_r)
    past = gm + 0.25 * 2.0 ** (127 - (b_r - 9))  # nearest is grid_max
    for xs, cs in (([past], [fp.UP]), ([-past], [fp.DOWN]),
                   (np.append(x, past), np.append(codes, fp.UP))):
        with pytest.raises(fp.OutOfRange, match="out of representable range"):
            fp.replay(np.asarray(xs), b_r, np.asarray(cs, dtype=np.uint8))
    # a value on the grid never moves, under any code
    kept, unit = b_r - 9, 2.0 ** ((32 - b_r) - 149)
    mags = np.array([0.0, unit, 3 * unit, 2.0 ** -126 - unit, 2.0 ** -126, 1.0,
                     1.0 + 2.0 ** -kept, 2.0 - 2.0 ** -kept, 2.0 ** 127, gm])
    assert is_on_grid(mags, b_r).all()
    x = np.concatenate([mags, -mags])
    for code in (fp.DOWN, fp.IGNORE, fp.UP):
        replayed, corrections = fp.replay(x, b_r, np.full(x.shape, code, dtype=np.uint8))
        assert np.array_equal(bits(replayed), bits(x)) and corrections == 0


def normal_cases(b_r: int, rng, n: int = 20000) -> np.ndarray:
    """Magnitudes from 2^-126 to grid_max where nearest rounding is
    ``round_to_width(x, b_r + 3)``: random bit patterns, ties whose kept
    lowest bit is even and odd, values at the top of a binade that round up
    to the next power of two, and values within one grid step below
    grid_max."""
    kept = b_r - 9
    gm = fp.grid_max(b_r)
    exponent = rng.integers(1023 - 126, 1023 + 128, n, dtype=np.uint64)
    mantissa = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    random = ((exponent << np.uint64(52)) | mantissa).view(np.float64)
    step = np.exp2(rng.integers(-126, 127, n) - kept)  # grid spacing, binades below 2^127
    ties = (rng.integers(1 << kept, 2 << kept, n) + 0.5) * step
    top = ((2 << kept) - 1 + rng.choice([0.5, 0.75, 0.5 + 2.0 ** -20], n)) * step
    below_max = gm - rng.integers(0, 1 << 20, n) * 2.0 ** (127 - kept - 20)
    mags = np.concatenate([random[random <= gm], ties, top, below_max])
    assert mags.min() >= 2.0 ** -126 and mags.max() <= gm
    return mags


@pytest.mark.parametrize("b_r", range(fp.MIN_B, fp.MAX_B + 1))
def test_nearest_is_round_to_width_above_the_fp32_normal_floor(b_r):
    mags = normal_cases(b_r, np.random.default_rng(b_r))
    up = fp.round_to_width(mags.copy(), b_r + 3)
    carried = ((up.view(np.uint64) & np.uint64((1 << 52) - 1)) == 0) & (up > mags)
    assert np.count_nonzero(carried) >= 20000  # every binade-top case rounds up to 2^(e+1)
    x = np.concatenate([mags, -mags, [0.0, -0.0]])
    want = fp.round_to_width(x.copy(), b_r + 3)
    assert np.array_equal(bits(fp.rnd_array(x, b_r)), bits(want))
    assert np.array_equal(bits(fp.round_and_code(x, b_r, 0.0)[0]), bits(want))


@pytest.mark.parametrize("b_r", range(fp.MIN_B, fp.MAX_B + 1))
def test_nearest_near_grid_max_and_below_the_fp32_normal_floor(b_r):
    kept = b_r - 9
    gm, step = fp.grid_max(b_r), 2.0 ** (127 - kept)
    # within half a grid step past grid_max, nearest is grid_max
    near = gm + np.array([2.0 ** -20, 0.25, 0.5 - 2.0 ** -20]) * step
    assert fp.rnd_array(np.concatenate([near, -near]), b_r).tolist() == [gm] * 3 + [-gm] * 3
    # from the tie on, nearest is 2^128: the far side of grid_max
    for f in (0.5, 0.75, 1.0):
        for x in (gm + f * step, -(gm + f * step)):
            assert abs(fp.round_to_width(np.array([x]), b_r + 3)[0]) == 2.0 ** 128
            with pytest.raises(fp.OutOfRange, match="out of representable range"):
                fp.rnd_array(x, b_r)
            with pytest.raises(fp.OutOfRange, match="out of representable range"):
                fp.round_and_code(x, b_r, 0.0)
    # FP32-subnormal magnitudes (ties of both parities and the tie onto
    # 2^-126 included) and FP64 subnormals take the absolute grid
    unit = 2.0 ** ((32 - b_r) - 149)
    rng = np.random.default_rng(50 + b_r)
    steps = rng.integers(0, 1 << (23 - (32 - b_r)), 60)
    tiny = np.concatenate([
        (steps + rng.random(60)) * unit, (steps + 0.5) * unit, [2.0 ** -126 - 0.5 * unit],
        [5e-324, 1e-310, 2.0 ** -1022 - 5e-324],
    ])
    x = np.concatenate([tiny, -tiny])
    want = np.copysign([oracle_rnd(v, b_r) for v in x.tolist()], x)
    assert np.array_equal(bits(fp.rnd_array(x, b_r)), bits(want))
    assert np.array_equal(bits(fp.round_and_code(x, b_r, 0.0)[0]), bits(want))


class TestKernelMemory:
    """Peak bytes the kernels allocate on a 512 x 256 tensor, in units of its size."""

    X = np.random.default_rng(30).normal(size=(512, 256))
    CODES = np.random.default_rng(31).integers(0, 3, size=(512, 256)).astype(np.uint8)
    HONEST = fp.direction_array(X, 32, 2.0 ** -25)  # the trainer's own: nothing moves

    @pytest.mark.parametrize("kernel, codes, limit", [
        (lambda x, c: fp.rnd_array(x, 32), "CODES", 2.5),
        (lambda x, c: fp.round_and_code(x, 32, 2.0 ** -25), "CODES", 6.0),
        (lambda x, c: fp.replay(x, 32, c), "CODES", 5.0),
        (lambda x, c: fp.replay(x, 32, c), "HONEST", 5.0),
    ], ids=["rnd_array", "round_and_code", "replay", "replay_honest_codes"])
    def test_peak(self, kernel, codes, limit):
        tracemalloc.start()
        try:
            kernel(self.X, getattr(self, codes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit * self.X.nbytes, f"peak {peak / self.X.nbytes:.2f}x"


def test_kernels_leave_their_inputs_alone():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(6, 5)) * np.exp2(rng.integers(-140, 20, size=(6, 5)))
    for arg in (x, x.T, x[:, 1]):
        codes = rng.integers(0, 3, size=arg.shape).astype(np.uint8)
        before, codes_before = arg.copy(), codes.copy()
        fp.rnd_array(arg, 29)
        fp.round_and_code(arg, 29, 0.0)
        fp.replay(arg, 29, codes)
        assert np.array_equal(bits(arg), bits(before)) and np.array_equal(codes, codes_before)
