"""Grid arithmetic: examples, oracle agreement, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtrain import fpround as fp

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
            assert fp.rnd(0.0, b) == 0.0

    def test_fp32_values_are_fixed_points(self):
        # bit pattern 00111110010011001100110011001101 is float32(0.2)
        x = float(np.uint32(0b00111110010011001100110011001101).view(np.float32))
        assert fp.rnd(x, 32) == x

    def test_tie_rounds_to_even(self):
        # 1 + 2^-24 sits exactly between 1.0 and 1 + 2^-23; 1.0 has the even bit
        assert fp.rnd(1.0 + 2.0**-24, 32) == 1.0

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
            assert fp.is_on_grid(r, b).all()

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        xs = np.concatenate([
            rng.normal(size=300) * np.exp2(rng.integers(-30, 30, size=300)),
            1.0 + rng.integers(0, 8, size=100) * 2.0**-25,
            rng.normal(size=50) * 1e-40,  # FP32-subnormal region
        ])
        for b in (26, 29, 32):
            for x in xs:
                assert fp.rnd(float(x), b) == oracle_rnd(float(x), b), (x, b)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fp.rnd(bad, 32)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="out of representable range"):
            fp.rnd(1e39, 32)

    def test_bad_b_rejected(self):
        for b in (9, 33, 0):
            with pytest.raises(ValueError):
                fp.rnd(1.0, b)

    def test_monotone_coarsening(self):
        # the coarse grid is a subset of every finer grid
        rng = np.random.default_rng(10)
        xs = rng.normal(size=5000) * np.exp2(rng.integers(-20, 20, size=5000))
        for b_coarse, b_fine in ((26, 29), (26, 32), (29, 32), (10, 26)):
            coarse = fp.rnd_array(xs, b_coarse)
            assert fp.is_on_grid(coarse, b_fine).all()
            assert np.array_equal(fp.rnd_array(coarse, b_fine), coarse)

    def test_distance_bound(self):
        rng = np.random.default_rng(11)
        xs = rng.normal(size=20000) * np.exp2(rng.integers(-50, 38, size=20000))
        for b in B_VALUES:
            r = fp.rnd_array(xs, b)
            scale = np.maximum(fp.exponent_scale_array(r), fp.SCALE_FLOOR)
            assert np.all(np.abs(r - xs) <= 0.5 * fp.epsilon(b, 1.0) * scale)


class TestEpsilonAndScale:
    def test_epsilon_values(self):
        assert fp.epsilon(32, 1.0) == 2.0**-23
        assert fp.epsilon(26, 1.0) == 2.0**-17
        assert fp.epsilon(32, 2.0) == 2.0**-22

    def test_exponent_scale_examples(self):
        assert fp.exponent_scale(1.5) == 1.0
        assert fp.exponent_scale(0.2) == 0.125
        assert fp.exponent_scale(-6.0) == 4.0
        assert fp.exponent_scale(0.0) == 2.0**-126

    def test_exponent_scale_bracket(self):
        rng = np.random.default_rng(12)
        xs = rng.normal(size=5000) * np.exp2(rng.integers(-100, 100, size=5000))
        xs = xs[xs != 0]
        scale = fp.exponent_scale_array(xs)
        ratio = np.abs(xs) / scale
        assert np.all((ratio >= 1.0) & (ratio < 2.0))


class TestDirection:
    def test_on_grid_is_ignore(self):
        p = fp.RoundingParams(b_r=32, tau=0.25 * 2.0**-23)
        for v in (0.0, 1.0, -2.5, float(np.float32(0.1))):
            assert fp.direction(v, p) == fp.IGNORE

    def test_distance_exactly_tau_is_ignore(self):
        # the logging test is strict: a value exactly tau from its grid
        # point stays in the ignore band
        p = fp.RoundingParams(b_r=32, tau=0.25 * 2.0**-23)
        assert fp.direction(1.0 + 0.75 * 2.0**-23, p) == fp.IGNORE

    def test_up_and_down(self):
        p = fp.RoundingParams(b_r=32, tau=0.25 * 2.0**-23)
        assert fp.direction(1.0 + 0.6 * 2.0**-23, p) == fp.UP
        assert fp.direction(1.0 + 0.4 * 2.0**-23, p) == fp.DOWN

    def test_zero_is_ignore(self):
        p = fp.RoundingParams(b_r=26, tau=0.25 * 2.0**-23)
        assert fp.direction(0.0, p) == fp.IGNORE

    def test_params_validation(self):
        with pytest.raises(ValueError):
            fp.RoundingParams(b_r=32, tau=0.6 * 2.0**-23)  # above upper bound
        with pytest.raises(ValueError):
            fp.RoundingParams(b_r=32, tau=0.1 * 2.0**-23)  # below lower bound
        with pytest.raises(ValueError):
            fp.RoundingParams(b_r=32, tau=0.25 * 2.0**-23, b_tr=32)

    def test_training_precision_validation(self):
        tau = 0.25 * 2.0**-23
        assert fp.RoundingParams(b_r=32, tau=tau, b_tr=50).b_tr == 50
        # the kept mantissa (b_tr - 12 bits) must be wider than the grid's 23
        with pytest.raises(ValueError):
            fp.RoundingParams(b_r=32, tau=tau, b_tr=35)
        assert fp.RoundingParams(b_r=26, tau=tau, b_tr=38).b_tr == 38
        # one add's noise, 2^-(b_tr - 12), must stay under tau = 2^-25
        with pytest.raises(ValueError):
            fp.RoundingParams(b_r=26, tau=tau, b_tr=37)
        with pytest.raises(ValueError):
            fp.RoundingParams(b_r=32, tau=0.0, b_tr=50)
        with pytest.raises(ValueError):
            fp.RoundingParams(b_r=32, tau=tau, b_tr=65)

    def test_check_b_tr_fan_in(self):
        tau = 0.25 * 2.0**-23
        fp.check_b_tr(50, 32, tau, fan_in=256)
        fp.check_b_tr(45, 32, tau, fan_in=256)  # 255 * 2^-33 just under 2^-25
        with pytest.raises(ValueError):
            fp.check_b_tr(44, 32, tau, fan_in=256)
        fp.check_b_tr(64, 32, 0.0, fan_in=1 << 30)  # exact FP64 adds are not bounded


class TestNeighbors:
    def test_grid_point_brackets_itself(self):
        g = fp.rnd(0.37, 30)
        assert fp.grid_neighbors(g, 30) == (g, g)

    def test_midpoint_example(self):
        below, above = fp.grid_neighbors(1.0 + 0.5 * 2.0**-23, 32)
        assert below == 1.0
        assert above == 1.0 + 2.0**-23

    def test_sign_symmetry(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=3000) * np.exp2(rng.integers(-45, 30, size=3000))
        for b in B_VALUES:
            below, above = fp.grid_neighbors_array(xs, b)
            nbelow, nabove = fp.grid_neighbors_array(-xs, b)
            assert np.array_equal(nbelow, -above)
            assert np.array_equal(nabove, -below)

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        xs = rng.normal(size=200) * np.exp2(rng.integers(-30, 30, size=200))
        for b in (26, 32):
            for x in xs:
                assert fp.grid_neighbors(float(x), b) == oracle_neighbors(float(x), b)

    def test_bracket_and_membership(self):
        rng = np.random.default_rng(15)
        xs = rng.normal(size=20000) * np.exp2(rng.integers(-60, 38, size=20000))
        for b in B_VALUES:
            below, above = fp.grid_neighbors_array(xs, b)
            assert np.all(below <= xs) and np.all(above >= xs)
            assert fp.is_on_grid(below, b).all() and fp.is_on_grid(above, b).all()
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
        assert fp.rev(1.0 + 0.4 * 2.0**-23, 32, fp.UP) == 1.0 + 2.0**-23

    def test_agreeing_up_example(self):
        assert fp.rev(1.0 + 0.6 * 2.0**-23, 32, fp.UP) == 1.0 + 2.0**-23

    def test_forced_down(self):
        assert fp.rev(1.0 + 0.6 * 2.0**-23, 32, fp.DOWN) == 1.0

    def test_on_grid_never_corrected(self):
        g = fp.rnd(3.7, 28)
        for c in (fp.DOWN, fp.IGNORE, fp.UP):
            assert fp.rev(g, 28, c) == g

    def test_output_is_bracketing_grid_point(self):
        rng = np.random.default_rng(17)
        xs = rng.normal(size=10000) * np.exp2(rng.integers(-40, 30, size=10000))
        codes = rng.integers(0, 3, size=10000).astype(np.uint8)
        for b in (26, 29, 32):
            out = fp.rev_array(xs, b, codes)
            below, above = fp.grid_neighbors_array(xs, b)
            assert np.all((out == below) | (out == above))

    def test_bad_code_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            fp.rev(1.5, 32, 3)


def _sync_check(b_r: int, tau: float, n: int, seed: int) -> None:
    """Perturbations within the guarantee stay replayable to the same point."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * np.exp2(rng.integers(-30, 30, size=n))
    scale = np.maximum(fp.exponent_scale_array(x), fp.SCALE_FLOOR)
    bound = np.minimum(0.25 * fp.epsilon(b_r, 1.0) * scale, tau * scale)
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
    _sync_check(b_r, 0.25 * fp.epsilon(b_r, 1.0), 200000, seed=100 + b_r)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-1e38, max_value=1e38, allow_nan=False),
    b_r=st.sampled_from(B_VALUES),
)
def test_rnd_hypothesis_invariants(x, b_r):
    r = fp.rnd(x, b_r)
    assert fp.rnd(r, b_r) == r
    assert bool(fp.is_on_grid(np.asarray([r]), b_r)[0])
    assert fp.rnd(-x, b_r) == -r


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
    c=st.sampled_from((0, 1, 2)),
    b_r=st.sampled_from(B_VALUES),
)
def test_rev_hypothesis_membership(x, c, b_r):
    out = fp.rev(x, b_r, c)
    below, above = fp.grid_neighbors(x, b_r)
    assert out in (below, above)


def test_rev_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        fp.rev_array(np.zeros(4), 32, np.zeros(3, dtype=np.uint8))


def oracle_code(x: float, b_r: int, tau: float) -> int:
    """Direction code from oracle_rnd and the frexp exponent scale."""
    r = oracle_rnd(x, b_r)
    scale = max(fp.exponent_scale(x), fp.SCALE_FLOOR)
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
def test_kernels_match_oracles(case):
    b_r, xs, codes, tau = case
    x = np.asarray(xs)
    # the grid point keeps the sign of x, zero included
    nearest = np.copysign([oracle_rnd(v, b_r) for v in xs], x)
    rounded, got_codes = fp.round_and_code(x, b_r, tau)
    assert np.array_equal(bits(rounded), bits(nearest))
    assert got_codes.tolist() == [oracle_code(v, b_r, tau) for v in xs]
    p = fp.RoundingParams(b_r, tau)
    assert got_codes.tolist() == [fp.direction(v, p) for v in xs]

    replayed, corrections = fp.replay(x, b_r, np.asarray(codes, dtype=np.uint8))
    want = np.copysign([oracle_rev(v, b_r, c) for v, c in zip(xs, codes)], x)
    assert np.array_equal(bits(replayed), bits(want))
    assert np.array_equal(bits(replayed), bits([fp.rev(v, b_r, c) for v, c in zip(xs, codes)]))
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


def test_kernels_keep_shape_and_checks():
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    rounded, codes = fp.round_and_code(x, 26, 0.0)
    assert rounded.shape == codes.shape == (3, 4) and codes.dtype == np.uint8
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
                rounded, codes = fp.round_and_code(x, b, self.TAU)
                assert rounded[0] == np.copysign(gm, x)
                replayed, corrections = fp.replay(x, b, codes)
                assert (replayed[0], corrections) == (np.copysign(gm, x), 0)
                assert fp.rev(x, b, int(codes[0])) == np.copysign(gm, x)
                assert fp.rnd(x, b) == np.copysign(gm, x)

    def test_kept_value_past_grid_max_rejected(self):
        b = 32
        gm = fp.grid_max(b)
        near = gm * (1 + 2.0**-30)  # nearest is grid_max, the neighbour above is 2^128
        beyond = gm + 0.75 * 2.0**104  # 3/4 of a grid step past grid_max: nearest is 2^128
        calls = [
            lambda: fp.rnd(beyond, b),
            lambda: fp.round_and_code(beyond, b, self.TAU),
            lambda: fp.replay(beyond, b, [fp.IGNORE]),
            lambda: fp.rev(near, b, fp.UP),
            lambda: fp.rev(-near, b, fp.DOWN),
            lambda: fp.grid_neighbors(near, b),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="out of representable range"):
                call()
