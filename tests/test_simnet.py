"""Kernel: reductions, layers, gradients, PRNG, dataset, batching."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vtrain import simnet as sn
from vtrain.protocol import LayerSpec

SEQ = sn.get_profile("sequential")
REV = sn.get_profile("reversed")
PW = sn.get_profile("pairwise")
CH7 = sn.get_profile("chunked7")
ALL_PROFILES = (SEQ, REV, PW, CH7)

# first outputs of the reference stream for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def seq_fold_reference(a: np.ndarray, order=None, b_tr: int = 64) -> np.ndarray:
    """Add a[..., i] for i in ``order`` (default left to right) one at a time.

    Below 64, each partial sum is rounded to the b_tr accumulator width by
    ``width_oracle``.
    """
    order = list(range(a.shape[-1]) if order is None else order)
    acc = a[..., order[0]].copy()
    for i in order[1:]:
        acc = acc + a[..., i]
        if b_tr < 64:
            acc = np.vectorize(width_oracle, otypes=[float])(acc, b_tr)
    return acc


class TestRng:
    def test_reference_vector(self):
        rng = sn.Rng(0)
        assert tuple(rng.next_u64() for _ in range(3)) == SPLITMIX64_SEED0

    def test_same_seed_same_stream(self):
        a, b = sn.Rng(987654321), sn.Rng(987654321)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_block_matches_scalar(self):
        a, b = sn.Rng(42), sn.Rng(42)
        block = a.next_block(257)
        scalars = [b.next_u64() for _ in range(257)]
        assert block.tolist() == scalars
        assert a.state == b.state

    def test_floats_in_unit_interval(self):
        rng = sn.Rng(5)
        u = rng.floats_block(10000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_shuffle_deterministic(self):
        a, b = sn.Rng(3), sn.Rng(3)
        xs, ys = list(range(50)), list(range(50))
        a.shuffle(xs)
        b.shuffle(ys)
        assert xs == ys
        assert sorted(xs) == list(range(50))

    def test_shuffle_matches_next_below_loop(self):
        for n in (1, 2, 4096):
            a, b = sn.Rng(n), sn.Rng(n)
            xs, ys = list(range(n)), list(range(n))
            a.shuffle(xs)
            for i in range(n - 1, 0, -1):
                j = b.next_below(i + 1)
                ys[i], ys[j] = ys[j], ys[i]
            assert xs == ys
            assert a.state == b.state


class TestReduce:
    def test_ordering_effect_fp64(self):
        # sequential left fold is plain IEEE addition in order
        vals = [0.1, -0.1, 0.2]
        assert sn.reduce_values(vals, SEQ) == (0.1 + -0.1) + 0.2
        assert sn.reduce_values(vals, REV) == (0.2 + -0.1) + 0.1

    def test_fp32_ordering_demo(self):
        # the classic single-precision demonstration: two summation orders
        # of [0.1, -0.1, 0.2] land on adjacent FP32 values
        a, b, c = np.float32(0.1), np.float32(-0.1), np.float32(0.2)
        abc = (a + b) + c
        acb = (a + c) + b
        assert format(abc.view(np.uint32), "032b") == "00111110010011001100110011001101"
        assert format(acb.view(np.uint32), "032b") == "00111110010011001100110011001110"
        assert f"{float(abc):.12f}" == "0.200000002980"
        assert f"{float(acb):.12f}" == "0.200000017881"

    def test_fp32_ordering_demo_second(self):
        a = np.float32(10.02)
        b = np.float32(13.162813186645508)
        c = np.float32(0.2)
        assert format(((a + b) + c).view(np.uint32), "032b") == "01000001101110110001000000000001"
        assert format(((a + c) + b).view(np.uint32), "032b") == "01000001101110110001000000000000"

    def test_singleton(self):
        for p in ALL_PROFILES:
            assert sn.reduce_values([3.25], p) == 3.25

    def test_exact_integers_order_free(self):
        rng = np.random.default_rng(0)
        ints = rng.integers(-1000, 1000, size=200).astype(np.float64)
        results = {p.name: sn.reduce_values(ints, p) for p in ALL_PROFILES}
        assert len(set(results.values())) == 1

    def test_sequential_matches_reference_fold(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(33, 257)) * np.exp2(rng.integers(-25, 25, size=(33, 257)))
        assert np.array_equal(sn.reduce_last_axis(a, SEQ), seq_fold_reference(a))
        assert np.array_equal(
            sn.reduce_last_axis(a, REV), seq_fold_reference(a, order=range(256, -1, -1))
        )

    def test_pairwise_association(self):
        vals = np.array([[1e16, 1.0, -1e16, 1.0]])
        # ((1e16 + 1) + (-1e16 + 1)): left half first
        expected = (1e16 + 1.0) + (-1e16 + 1.0)
        assert sn.reduce_last_axis(vals, PW)[0] == expected

    def test_chunked_association(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=17)
        chunks = [vals[i : i + 7] for i in range(0, 17, 7)]
        acc = None
        for ch in chunks:
            s = ch[0]
            for v in ch[1:]:
                s = s + v
            acc = s if acc is None else acc + s
        assert sn.reduce_values(vals, CH7) == acc

    def test_profiles_diverge_on_long_vectors(self):
        # the cross-device stand-in: orders disagree somewhere
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=64) * np.exp2(rng.integers(-10, 10, size=64))
            if sn.reduce_values(v, SEQ) != sn.reduce_values(v, PW):
                hits += 1
        assert hits >= 1

    def test_profile_determinism(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(100, 31))
        for p in ALL_PROFILES:
            assert np.array_equal(sn.reduce_last_axis(v, p), sn.reduce_last_axis(v, p))

    def test_bad_profile(self):
        with pytest.raises(ValueError):
            sn.get_profile("quantum")
        with pytest.raises(ValueError):
            sn.DeviceProfile("x", "chunked", 0)


def width_oracle(x: float, b_tr: int) -> float:
    """Nearest value with b_tr - 12 stored mantissa bits, ties to even."""
    if x == 0.0:
        return x
    m, e = math.frexp(x)  # |m| in [0.5, 1): b_tr - 11 significant bits kept
    p = b_tr - 11
    return math.ldexp(round(m * 2**p), e - p)  # round() is exact and ties to even


def rounded_fold_reference(vals, profile: sn.DeviceProfile, b_tr: int) -> float:
    """One add at a time in the profile's association order, rounding each sum."""

    def add(x, y):
        return width_oracle(x + y, b_tr)

    def seq(v):
        acc = v[0]
        for x in v[1:]:
            acc = add(acc, x)
        return acc

    def pairwise(v):
        if len(v) == 1:
            return v[0]
        mid = len(v) // 2
        return add(pairwise(v[:mid]), pairwise(v[mid:]))

    vals = [float(v) for v in vals]
    if profile.strategy == "sequential":
        return seq(vals)
    if profile.strategy == "reversed":
        return seq(vals[::-1])
    if profile.strategy == "pairwise":
        return pairwise(vals)
    c = profile.chunk_size
    return seq([seq(vals[i : i + c]) for i in range(0, len(vals), c)])


class TestAccumulatorWidth:
    def test_round_to_width_matches_oracle(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=2000) * np.exp2(rng.integers(-60, 60, size=2000))
        for b_tr in (20, 36, 50, 63):
            got = sn.round_to_width(x.copy(), b_tr)
            assert got.tolist() == [width_oracle(v, b_tr) for v in x.tolist()]

    def test_ties_to_even_and_binade_carry(self):
        step = 2.0**-38  # spacing just above 1.0 at b_tr = 50
        x = np.array([1 + 0.5 * step, 1 + 1.5 * step, -(1 + 0.5 * step), 2 - 0.5 * step, 0.0])
        assert sn.round_to_width(x, 50).tolist() == [1.0, 1 + 2 * step, -1.0, 2.0, 0.0]

    @pytest.mark.parametrize("profile", ALL_PROFILES + (sn.get_profile("chunked:3"),),
                             ids=lambda p: p.name)
    def test_fold_matches_reference(self, profile):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(6, 37)) * np.exp2(rng.integers(-20, 20, size=(6, 37)))
        for b_tr in (40, 50):
            got = sn.reduce_last_axis(a, replace(profile, b_tr=b_tr))
            assert got.tolist() == [rounded_fold_reference(row, profile, b_tr) for row in a]
            assert sn.reduce_values(a[0], replace(profile, b_tr=b_tr)) == got[0]

    def test_width_64_is_exact_fp64(self):
        # at 64 the oracle is the identity, so the reference is a plain FP64 fold
        rng = np.random.default_rng(22)
        a = rng.normal(size=(5, 4, 29)) * np.exp2(rng.integers(-25, 25, size=(5, 4, 29)))
        for p in ALL_PROFILES:
            assert p.b_tr == 64
            fp64 = [rounded_fold_reference(row, p, 64) for row in a.reshape(-1, 29)]
            assert sn.reduce_last_axis(a, p).reshape(-1).tolist() == fp64

    def test_narrower_width_changes_sums(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(50, 64))
        narrow = sn.reduce_last_axis(a, replace(PW, b_tr=40))
        assert not np.array_equal(narrow, sn.reduce_last_axis(a, PW))
        assert np.all(np.abs(narrow - sn.reduce_last_axis(a, PW)) <= 63 * 2.0**-28 * np.abs(a).sum(-1))

    def test_weight_grads_stay_exact(self):
        rng = np.random.default_rng(24)
        x, W, g = rng.normal(size=(16, 9)), rng.normal(size=(9, 11)), rng.normal(size=(16, 11))
        _, gW, gb = sn.dense_backward(g, x, W, replace(PW, b_tr=40))
        _, ref_W, ref_b = sn.dense_backward(g, x, W, SEQ)
        assert np.array_equal(gW, ref_W) and np.array_equal(gb, ref_b)

    def test_bad_width(self):
        for b_tr in (12, 65, 50.0):
            with pytest.raises(ValueError):
                sn.DeviceProfile("x", "sequential", b_tr=b_tr)


class TestDense:
    def test_identity(self):
        x = np.random.default_rng(4).normal(size=(5, 3))
        out = sn.dense_forward(x, np.eye(3), np.zeros(3), SEQ)
        assert np.array_equal(out, x)

    def test_one_by_one(self):
        out = sn.dense_forward(np.array([[2.0]]), np.array([[3.0]]), np.array([0.5]), PW)
        assert out[0, 0] == 2.0 * 3.0 + 0.5

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        W = rng.normal(size=(3, 5))
        b = rng.normal(size=5)
        out = sn.dense_forward(x, W, b, SEQ)
        expected = np.empty((4, 5))
        for n in range(4):
            for j in range(5):
                acc = x[n, 0] * W[0, j]
                for i in range(1, 3):
                    acc = acc + x[n, i] * W[i, j]
                expected[n, j] = acc + b[j]
        assert np.array_equal(out, expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sn.dense_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5), SEQ)

    def test_zero_grad_out(self):
        rng = np.random.default_rng(6)
        x, W = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
        gx, gW, gb = sn.dense_backward(np.zeros((4, 2)), x, W, SEQ)
        assert not gx.any() and not gW.any() and not gb.any()

    def test_one_by_one_gradients(self):
        x, W = np.array([[2.0]]), np.array([[3.0]])
        g = np.array([[0.25]])
        gx, gW, gb = sn.dense_backward(g, x, W, SEQ)
        assert gx[0, 0] == 3.0 * 0.25
        assert gW[0, 0] == 2.0 * 0.25
        assert gb[0] == 0.25

    def test_weight_grads_profile_independent(self):
        # the accumulation that is not logged must not depend on the profile
        rng = np.random.default_rng(7)
        x = rng.normal(size=(16, 9))
        W = rng.normal(size=(9, 11))
        g = rng.normal(size=(16, 11))
        refs = sn.dense_backward(g, x, W, SEQ)
        for p in (REV, PW, CH7):
            _, gW, gb = sn.dense_backward(g, x, W, p)
            assert np.array_equal(gW, refs[1])
            assert np.array_equal(gb, refs[2])


def profile_fold_reference(a: np.ndarray, profile: sn.DeviceProfile) -> np.ndarray:
    """The profile's association order over the last axis, built from seq_fold_reference."""
    n, b_tr = a.shape[-1], profile.b_tr
    if profile.strategy == "sequential":
        return seq_fold_reference(a, b_tr=b_tr)
    if profile.strategy == "reversed":
        return seq_fold_reference(a, order=range(n - 1, -1, -1), b_tr=b_tr)
    if profile.strategy == "pairwise":
        if n == 1:
            return a[..., 0].copy()
        halves = [profile_fold_reference(a[..., : n // 2], profile),
                  profile_fold_reference(a[..., n // 2 :], profile)]
        return seq_fold_reference(np.stack(halves, axis=-1), b_tr=b_tr)
    c = profile.chunk_size
    sums = [seq_fold_reference(a[..., i : i + c], b_tr=b_tr) for i in range(0, n, c)]
    return seq_fold_reference(np.stack(sums, axis=-1), b_tr=b_tr)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# (batch, in, out). Terms of 512 or more elements are folded one at a time,
# smaller ones materialised: forward terms are batch x out, input-gradient
# terms batch x in, weight-gradient terms in x out.
DENSE_SHAPES = [
    (3, 5, 7),  # every sum materialised
    (24, 9, 32),  # forward folded (768), both gradients materialised
    (32, 33, 16),  # all three folded, forward at exactly 512, odd n = 33
    (600, 1, 1),  # n = 1 for forward and grad_x, width-1 output
    (640, 5, 1),  # width-1 output folded, chunk of 7 longer than n = 5
    (1, 700, 3),  # single-sample batch, grad_W folded over n = 1
]


class TestDenseKernelExact:
    """dense_forward/dense_backward against one-add-at-a-time oracles."""

    @pytest.mark.parametrize("shape", DENSE_SHAPES, ids=str)
    @pytest.mark.parametrize("b_tr", (64, 50))
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_matches_reference(self, profile, b_tr, shape):
        batch, n_in, n_out = shape
        rng = np.random.default_rng(batch * 1000 + n_in * 10 + n_out)
        scale = lambda size: np.exp2(rng.integers(-20, 20, size=size))
        x = rng.normal(size=(batch, n_in)) * scale((batch, n_in))
        W = rng.normal(size=(n_in, n_out))
        b = rng.normal(size=n_out)
        g = rng.normal(size=(batch, n_out)) * scale((batch, n_out))
        x[0, 0] = -0.0
        p = replace(profile, b_tr=b_tr)

        out = sn.dense_forward(x, W, b, p)
        assert same_bits(out, profile_fold_reference(x[:, None, :] * W.T[None, :, :], p) + b)

        grad_x, grad_W, grad_b = sn.dense_backward(g, x, W, p)
        assert same_bits(grad_x, profile_fold_reference(g[:, None, :] * W[None, :, :], p))
        # weight gradients are the exact FP64 sequential fold on every profile
        assert same_bits(grad_W, seq_fold_reference(x.T[:, None, :] * g.T[None, :, :]))
        assert same_bits(grad_b, seq_fold_reference(g.T))


class TestDenseMemory:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_no_product_tensor(self, profile):
        # x (512 x 32) and W (32 x 256): the (batch, out, in) product tensor is 32 MiB
        rng = np.random.default_rng(25)
        x, W = rng.normal(size=(512, 32)), rng.normal(size=(32, 256))
        b, g = np.zeros(256), rng.normal(size=(512, 256))
        product_bytes = x.shape[0] * W.size * 8
        tracemalloc.start()
        try:
            sn.dense_forward(x, W, b, profile)
            sn.dense_backward(g, x, W, profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < product_bytes / 2, f"peak {peak / 2**20:.1f} MiB"


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        hi = f()
        flat[i] = old - h
        lo = f()
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * h)
    return g


class TestGradientChecks:
    def test_dense_finite_differences(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n, din, dout = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
            x = rng.normal(size=(n, din))
            W = rng.normal(size=(din, dout))
            b = rng.normal(size=dout)
            target = rng.normal(size=(n, dout))

            def loss():
                out = sn.dense_forward(x, W, b, SEQ)
                return float(((out - target) ** 2).sum() / 2)

            grad_out = sn.dense_forward(x, W, b, SEQ) - target
            gx, gW, gb = sn.dense_backward(grad_out, x, W, SEQ)
            for analytic, arr in ((gx, x), (gW, W), (gb, b)):
                numeric = numeric_grad(loss, arr)
                denom = np.maximum(np.abs(numeric), 1e-3)
                assert np.all(np.abs(analytic - numeric) / denom < 1e-5)

    def test_softmax_xent_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss():
            return sn.softmax_xent_forward(logits, labels, SEQ)[0]

        _, grad = sn.softmax_xent_forward(logits, labels, SEQ)
        numeric = numeric_grad(loss, logits)
        assert np.all(np.abs(grad - numeric) < 1e-8)

    def test_bce_finite_differences(self):
        rng = np.random.default_rng(10)
        probs = rng.uniform(0.05, 0.95, size=(6, 1))
        labels = rng.integers(0, 2, size=6)

        def loss():
            return sn.bce_forward(probs, labels, SEQ)[0]

        _, grad = sn.bce_forward(probs, labels, SEQ)
        numeric = numeric_grad(loss, probs)
        assert np.all(np.abs(grad - numeric) < 1e-7)

    def test_sigmoid_backward(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 4))
        g = rng.normal(size=(3, 4))
        y = sn.sigmoid_forward(x)
        analytic = sn.sigmoid_backward(y, g)

        def out_sum():
            return float((sn.sigmoid_forward(x) * g).sum())

        numeric = numeric_grad(out_sum, x)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestElementwise:
    def test_relu_values(self):
        assert sn.relu_forward(np.array([-1.0]))[0] == 0.0
        assert sn.relu_forward(np.array([2.0]))[0] == 2.0

    def test_relu_gradient_mask(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        g = np.array([[5.0, 5.0, 5.0]])
        assert sn.relu_backward(x, g).tolist() == [[0.0, 0.0, 5.0]]

    def test_uniform_logits_loss(self):
        logits = np.zeros((8, 5))
        labels = np.arange(8) % 5
        loss, _ = sn.softmax_xent_forward(logits, labels, SEQ)
        assert abs(loss - np.log(5)) < 1e-12

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            sn.softmax_xent_forward(np.zeros((2, 3)), np.array([0, 3]), SEQ)

    def test_elementwise_profile_independent(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(7, 9))
        for p in ALL_PROFILES:
            assert np.array_equal(sn.relu_forward(x), np.maximum(x, 0))
            assert np.array_equal(sn.sigmoid_forward(x), 1 / (1 + np.exp(-x)))


class TestInitAndData:
    def test_init_deterministic(self):
        s1 = sn.build_stages([LayerSpec("dense", 6, 4), LayerSpec("relu")])
        s2 = sn.build_stages([LayerSpec("dense", 6, 4), LayerSpec("relu")])
        sn.init_weights(s1, sn.Rng(77))
        sn.init_weights(s2, sn.Rng(77))
        assert np.array_equal(s1[0].W, s2[0].W)

    def test_biases_zero(self):
        stages = sn.build_stages([LayerSpec("dense", 3, 5)])
        sn.init_weights(stages, sn.Rng(1))
        assert not stages[0].b.any()

    def test_fan_in_bound(self):
        stages = sn.build_stages([LayerSpec("dense", 1, 64)])
        sn.init_weights(stages, sn.Rng(2))
        assert np.all(np.abs(stages[0].W) <= 1.0)
        stages = sn.build_stages([LayerSpec("dense", 16, 8)])
        sn.init_weights(stages, sn.Rng(3))
        assert np.all(np.abs(stages[0].W) <= 0.25)

    def test_dataset_deterministic(self):
        X1, y1 = sn.make_dataset(64, 5, 3, sn.Rng(9))
        X2, y2 = sn.make_dataset(64, 5, 3, sn.Rng(9))
        assert np.array_equal(X1, X2) and np.array_equal(y1, y2)

    def test_labels_balanced_round_robin(self):
        _, y = sn.make_dataset(12, 2, 3, sn.Rng(4))
        assert y.tolist() == [0, 1, 2] * 4

    def test_one_point_per_class(self):
        X, y = sn.make_dataset(4, 3, 4, sn.Rng(5))
        assert sorted(y.tolist()) == [0, 1, 2, 3]
        assert X.shape == (4, 3)

    def test_points_near_centers(self):
        X, y = sn.make_dataset(100, 6, 2, sn.Rng(6))
        centers = sn.Rng(6).floats_block(2 * 6).reshape(2, 6)
        assert np.all(np.abs(X - centers[y]) <= 0.1)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            sn.make_dataset(0, 2, 2, sn.Rng(0))


class TestBatchSchedule:
    def test_deterministic(self):
        a = sn.BatchSchedule(32, 8, sn.Rng(11))
        b = sn.BatchSchedule(32, 8, sn.Rng(11))
        for _ in range(12):
            assert np.array_equal(a.next_batch(), b.next_batch())

    def test_epoch_partition(self):
        sched = sn.BatchSchedule(32, 8, sn.Rng(12))
        seen = np.concatenate([sched.next_batch() for _ in range(4)])
        assert sorted(seen.tolist()) == list(range(32))

    def test_batch_size_respected(self):
        sched = sn.BatchSchedule(30, 10, sn.Rng(13))
        for _ in range(9):
            assert sched.next_batch().shape == (10,)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            sn.BatchSchedule(4, 8, sn.Rng(14))


class TestShippedDivergenceBound:
    """Cross-profile drift stays far inside the replay guarantee's budget."""

    def test_divergence_small_on_shipped_shapes(self):
        from vtrain.fpround import SCALE_FLOOR, exponent_scale_array, rnd_array
        from vtrain.cli import load_config
        from conftest import CONFIG_DIR

        budget = 0.25 * 2.0**-23
        for name in ("mlp", "logreg", "trend", "divergence", "tiny"):
            cfg = load_config(CONFIG_DIR / f"{name}.json")
            # the accumulator width the run really has, as protocol._run sets it
            profiles = [replace(p, b_tr=cfg.b_tr) for p in ALL_PROFILES]
            rng = sn.Rng(cfg.seed)
            X, y = sn.make_dataset(cfg.dataset_size, cfg.dim, cfg.classes, rng)
            stages = sn.build_stages(cfg.layers)
            sn.init_weights(stages, rng)
            sched = sn.BatchSchedule(cfg.dataset_size, cfg.batch_size, rng)
            for _ in range(min(cfg.steps, 6)):
                idx = sched.next_batch()
                cur = X[idx]
                for stage in stages:
                    raws = [stage.forward(cur, p) for p in profiles]
                    tensor_scale = max(
                        float(np.maximum(exponent_scale_array(r), SCALE_FLOOR).max())
                        for r in raws
                    )
                    for other in raws[1:]:
                        drift = np.abs(raws[0] - other).max()
                        assert drift < budget * tensor_scale, (name, stage.kind, drift)
                    cur = rnd_array(raws[0], cfg.b_r)
