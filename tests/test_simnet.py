"""Kernel: reductions, layers, gradients, PRNG, dataset, batching."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtrain import simnet as sn
from vtrain.fpround import grid_max, rnd_array

ALL_NAMES = ("sequential", "reversed", "pairwise", "chunked7")
SEQ, REV, PW, CH7 = ALL_PROFILES = tuple(map(sn.get_profile, ALL_NAMES))


def by_name(*names):
    """Parameters: the profile each name looks up, with the name as its id."""
    return [pytest.param(sn.get_profile(name), id=name) for name in names]


# first outputs of the reference stream for seed 0
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def fold_reference(a: np.ndarray, profile: sn.DeviceProfile) -> np.ndarray:
    """Sum over the last axis in the profile's association order, one term at a time.

    ``sequential`` adds left to right and ``reversed`` right to left.
    ``pairwise`` sums the first n // 2 terms and the rest, each the same
    way, then adds the second sum to the first. ``chunked`` sums each chunk
    left to right, then the chunk sums. Below 64, each partial sum is
    rounded to the profile's ``b_tr`` by ``width_oracle_array``.
    """
    b_tr = profile.b_tr

    def fold(terms):
        acc = terms[0].copy()
        for term in terms[1:]:
            acc = acc + term
            if b_tr < 64:
                acc = width_oracle_array(acc, b_tr)
        return acc

    def pairwise(terms):
        if len(terms) == 1:
            return terms[0].copy()
        mid = len(terms) // 2
        return fold([pairwise(terms[:mid]), pairwise(terms[mid:])])

    terms = [a[..., i] for i in range(a.shape[-1])]
    if profile.strategy == "pairwise":
        return np.asarray(pairwise(terms))
    if profile.strategy == "reversed":
        terms = terms[::-1]
    c = profile.chunk_size or len(terms)  # unchunked: one chunk of all terms
    return np.asarray(fold([fold(terms[i : i + c]) for i in range(0, len(terms), c)]))


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

    @pytest.mark.parametrize("n", [0, 1, sn._BLOCK - 1, sn._BLOCK, sn._BLOCK + 1,
                                   3 * sn._BLOCK + 5])
    def test_blocks_match_scalar_draws(self, n):
        scalar, ints, floats = sn.Rng(77), sn.Rng(77), sn.Rng(77)
        want = np.array([scalar.next_u64() for _ in range(n)], dtype=np.uint64)
        assert np.array_equal(ints.next_block(n), want)
        got = floats.floats_block(n)
        assert same_bits(got, (want >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        assert ints.state == floats.state == scalar.state

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
                j = b.next_u64() % (i + 1)
                ys[i], ys[j] = ys[j], ys[i]
            assert xs == ys
            assert a.state == b.state


class TestReduce:
    def test_ordering_effect_fp64(self):
        # sequential left fold is plain IEEE addition in order
        vals = [0.1, -0.1, 0.2]
        assert sn.reduce_last_axis(vals, SEQ) == (0.1 + -0.1) + 0.2
        assert sn.reduce_last_axis(vals, REV) == (0.2 + -0.1) + 0.1

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
            assert sn.reduce_last_axis([3.25], p) == 3.25

    def test_exact_integers_order_free(self):
        rng = np.random.default_rng(0)
        ints = rng.integers(-1000, 1000, size=200).astype(np.float64)
        results = {float(sn.reduce_last_axis(ints, p)) for p in ALL_PROFILES}
        assert len(results) == 1

    def test_sequential_matches_reference_fold(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(33, 257)) * np.exp2(rng.integers(-25, 25, size=(33, 257)))
        assert np.array_equal(sn.reduce_last_axis(a, SEQ), fold_reference(a, SEQ))
        assert np.array_equal(sn.reduce_last_axis(a, REV), fold_reference(a, REV))

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
        assert sn.reduce_last_axis(vals, CH7) == acc

    def test_profiles_diverge_on_long_vectors(self):
        # the cross-device stand-in: orders disagree somewhere
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=64) * np.exp2(rng.integers(-10, 10, size=64))
            if sn.reduce_last_axis(v, SEQ) != sn.reduce_last_axis(v, PW):
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
            sn.DeviceProfile("chunked", 0)
        with pytest.raises(ValueError, match="unknown reduction strategy 'tree'"):
            sn.DeviceProfile("tree")
        with pytest.raises(ValueError, match="pairwise strategy takes no chunk_size"):
            sn.DeviceProfile("pairwise", 7)

    def test_profiles_are_equal_by_order(self):
        """A profile is its summation order: two names for one order look up
        equal profiles, and another chunk size or width is another profile."""
        assert sn.get_profile("chunked:7") == sn.PROFILES["chunked7"] == CH7
        assert sn.get_profile("chunked:3") != CH7
        assert replace(CH7, b_tr=50) != CH7
        assert len(set(ALL_PROFILES)) == len(ALL_PROFILES)


def width_oracle(x: float, b_tr: int) -> float:
    """Nearest value with b_tr - 12 stored mantissa bits, ties to even."""
    if x == 0.0:
        return x
    m, e = math.frexp(x)  # |m| in [0.5, 1): b_tr - 11 significant bits kept
    p = b_tr - 11
    return math.ldexp(round(m * 2**p), e - p)  # round() is exact and ties to even


def width_oracle_array(x: np.ndarray, b_tr: int) -> np.ndarray:
    """``width_oracle`` per element: frexp, ldexp and rint are exact, and rint ties to even."""
    m, e = np.frexp(x)
    p = b_tr - 11
    return np.ldexp(np.rint(m * 2.0**p), e - p)


class TestAccumulatorWidth:
    def test_round_to_width_matches_oracle(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=2000) * np.exp2(rng.integers(-60, 60, size=2000))
        for b_tr in (20, 36, 50, 63):
            got = sn.round_to_width(x.copy(), b_tr)
            assert got.tolist() == [width_oracle(v, b_tr) for v in x.tolist()]
            assert same_bits(width_oracle_array(x, b_tr), got)

    def test_ties_to_even_and_binade_carry(self):
        step = 2.0**-38  # spacing just above 1.0 at b_tr = 50
        x = np.array([1 + 0.5 * step, 1 + 1.5 * step, -(1 + 0.5 * step), 2 - 0.5 * step, 0.0])
        assert sn.round_to_width(x, 50).tolist() == [1.0, 1 + 2 * step, -1.0, 2.0, 0.0]

    @pytest.mark.parametrize("profile", by_name(*ALL_NAMES, "chunked:3"))
    def test_fold_matches_reference(self, profile):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(6, 37)) * np.exp2(rng.integers(-20, 20, size=(6, 37)))
        for b_tr in (40, 50):
            p = replace(profile, b_tr=b_tr)
            got = sn.reduce_last_axis(a, p)
            assert got.tolist() == fold_reference(a, p).tolist()
            assert sn.reduce_last_axis(a[0], p) == got[0]

    def test_width_64_is_exact_fp64(self):
        # at 64 the oracle is the identity, so the reference is a plain FP64 fold
        rng = np.random.default_rng(22)
        a = rng.normal(size=(5, 4, 29)) * np.exp2(rng.integers(-25, 25, size=(5, 4, 29)))
        for p in ALL_PROFILES:
            assert p.b_tr == 64
            fp64 = fold_reference(a, p).reshape(-1).tolist()
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
                sn.DeviceProfile("sequential", b_tr=b_tr)


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
        with pytest.raises(ValueError, match="dense backward shape mismatch"):
            sn.dense_input_grad(np.zeros((2, 4)), np.zeros((3, 5)), SEQ)
        with pytest.raises(ValueError, match="dense backward shape mismatch"):
            sn.dense_param_grads(np.zeros((2, 5)), np.zeros((3, 4)))

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


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# (batch, in, out). Forward terms are batch x out, input-gradient terms
# batch x in, weight-gradient terms in x out. A sum whose terms have more
# rows than columns is swapped (summed transposed, longer side innermost).
# A sum whose product tensor (terms x term elements) is within
# simnet._ELEMENT_BUDGET (2^17) is built at once, a bigger one in blocks
# of term rows, at least one row a block.
DENSE_SHAPES = [
    (3, 5, 7),  # every sum built at once, none swapped
    (24, 9, 32),  # input gradient swapped
    (32, 33, 16),  # forward and weight gradient swapped, odd n = 33
    (600, 1, 1),  # n = 1 for forward and grad_x, width-1 output
    (640, 5, 1),  # width-1 output, chunk of 7 longer than n = 5
    (1, 700, 3),  # single-sample batch, grad_W over n = 1
    (64, 16, 64),  # all three product tensors half the budget
    (65537, 1, 1),  # n = 65537 (prime) for grad_W and grad_b
    (64, 32, 64),  # all three product tensors exactly the budget
    (32, 32, 256),  # trend's first layer: all three twice it, blocks of 16 rows
    (3, 2, 65537),  # n x q alone past it: blocks of one row
]


class TestDenseKernelExact:
    """dense_forward/dense_backward against one-add-at-a-time oracles."""

    @pytest.mark.parametrize("shape", DENSE_SHAPES, ids=str)
    @pytest.mark.parametrize("b_tr", (64, 50))
    @pytest.mark.parametrize("profile", by_name(*ALL_NAMES))
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
        assert same_bits(out, fold_reference(x[:, None, :] * W.T[None, :, :], p) + b)

        grad_x, grad_W, grad_b = sn.dense_backward(g, x, W, p)
        assert same_bits(grad_x, fold_reference(g[:, None, :] * W[None, :, :], p))
        # weight gradients are the exact FP64 sequential fold on every profile
        assert same_bits(grad_W, fold_reference(x.T[:, None, :] * g.T[None, :, :], SEQ))
        assert same_bits(grad_b, fold_reference(g.T, SEQ))


def test_empty_sums_are_positive_zero():
    for p in ALL_PROFILES:
        assert same_bits(sn.reduce_last_axis(np.zeros((2, 0)), p), np.zeros(2))
        x, W, g = np.zeros((0, 3)), np.ones((3, 2)), np.zeros((0, 2))
        assert sn.dense_forward(x, W, np.zeros(2), p).shape == (0, 2)
        grad_x, grad_W, grad_b = sn.dense_backward(g, x, W, p)
        assert grad_x.shape == (0, 3)
        assert same_bits(grad_W, np.zeros((3, 2))) and same_bits(grad_b, np.zeros(2))


class TestDenseMemory:
    @pytest.mark.parametrize("profile", by_name(*ALL_NAMES))
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
        y = sn.Sigmoid().forward(x, [], SEQ)
        analytic, grads = sn.Sigmoid().backward(x, y, g, [], SEQ)
        assert grads == []

        def out_sum():
            return float((sn.Sigmoid().forward(x, [], SEQ) * g).sum())

        numeric = numeric_grad(out_sum, x)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestElementwise:
    def test_relu_values(self):
        assert sn.Relu().forward(np.array([-1.0]), [], SEQ)[0] == 0.0
        assert sn.Relu().forward(np.array([2.0]), [], SEQ)[0] == 2.0

    def test_relu_gradient_mask(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        g = np.array([[5.0, 5.0, 5.0]])
        grad_x, grads = sn.Relu().backward(x, None, g, [], SEQ)
        assert grad_x.tolist() == [[0.0, 0.0, 5.0]] and grads == []

    @pytest.mark.parametrize("kind", ["relu", "sigmoid"])
    def test_entry_takes_no_width(self, kind):
        """An elementwise layer keeps its input's width, so one entry spells it."""
        assert sn.layer_from_entry({"kind": kind}) == sn.LAYER_KINDS[kind]()
        for width in ({"in": 12}, {"out": 12}, {"in": 12, "out": 12}):
            with pytest.raises(ValueError, match=f"{kind} layer takes no in or out"):
                sn.layer_from_entry({"kind": kind, **width})

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
            assert np.array_equal(sn.Relu().forward(x, [], p), np.maximum(x, 0))
            assert np.array_equal(sn.Sigmoid().forward(x, [], p), 1 / (1 + np.exp(-x)))


@st.composite
def grid_arrays(draw):
    """A b_r and 1-12 values on its grid: normal, FP32-subnormal, +-0 and +-grid_max."""
    b_r = draw(st.sampled_from((26, 32)))
    kept = b_r - 9

    def value():
        sign = st.sampled_from((1.0, -1.0))
        normal = st.builds(lambda m, e, s: s * m * 2.0 ** (e - kept),
                           st.integers(1 << kept, (2 << kept) - 1), st.integers(-126, 127), sign)
        subnormal = st.builds(lambda m, s: s * m * 2.0 ** (-126 - kept),
                              st.integers(0, (1 << kept) - 1), sign)
        special = st.sampled_from((0.0, -0.0, grid_max(b_r), -grid_max(b_r)))
        return st.one_of(normal, subnormal, special)

    n = draw(st.integers(1, 12))
    xs, gs = (np.array(draw(st.lists(value(), min_size=n, max_size=n))) for _ in range(2))
    return b_r, xs, gs


@settings(max_examples=300, deadline=None)
@given(grid_arrays())
def test_relu_keeps_grid_values_on_the_grid(case):
    # why protocol lets ReLU outputs past the first stage pass through unrounded
    b_r, x, g = case

    def same(a):
        return np.array_equal(rnd_array(a, b_r).view(np.uint64), a.view(np.uint64))

    assert same(x) and same(g)
    assert same(sn.Relu().forward(x, [], SEQ))
    assert same(sn.Relu().backward(x, None, g, [], SEQ)[0])


class TestInitAndData:
    def test_init_deterministic(self):
        W1, _ = sn.Dense(6, 4).init(sn.Rng(77))
        W2, _ = sn.Dense(6, 4).init(sn.Rng(77))
        assert np.array_equal(W1, W2)
        assert sn.Relu().init(sn.Rng(77)) == []

    def test_biases_zero(self):
        _, b = sn.Dense(3, 5).init(sn.Rng(1))
        assert b.shape == (5,) and not b.any()

    def test_fan_in_bound(self):
        W, _ = sn.Dense(1, 64).init(sn.Rng(2))
        assert np.all(np.abs(W) <= 1.0)
        W, _ = sn.Dense(16, 8).init(sn.Rng(3))
        assert np.all(np.abs(W) <= 0.25)

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

    def test_dataset_bits_and_peak(self):
        n, dim, classes = 4096, 64, 2
        rng = sn.Rng(7)
        centers = rng.floats_block(classes * dim).reshape(classes, dim)
        offsets = rng.floats_block(n * dim).reshape(n, dim)
        labels = np.arange(n) % classes
        want = centers[labels] + 0.1 * offsets
        tracemalloc.start()
        try:
            drawn = sn.Rng(7)
            X, y = sn.make_dataset(n, dim, classes, drawn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_bits(X, want) and np.array_equal(y, labels) and drawn.state == rng.state
        assert peak <= 1.5 * X.nbytes, f"peak {peak / X.nbytes:.2f}x"

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            sn.make_dataset(0, 2, 2, sn.Rng(0))


# The batch order is part of the protocol: per epoch, its batches and the
# Rng state after them, for batches(32, 8, Rng(11)) ...
BATCHES_32_8_SEED11 = [
    ([[21, 5, 10, 7, 2, 8, 28, 15],
      [25, 19, 27, 20, 18, 17, 16, 30],
      [23, 31, 13, 26, 4, 12, 11, 14],
      [3, 0, 22, 24, 1, 9, 6, 29]],
     2934021998537672342),
    ([[13, 29, 16, 11, 0, 10, 18, 25],
      [15, 2, 20, 1, 24, 14, 30, 27],
      [3, 7, 21, 4, 8, 17, 9, 12],
      [5, 26, 28, 19, 22, 31, 23, 6]],
     5868043997075344673),
    ([[24, 10, 12, 11, 1, 29, 7, 6],
      [28, 16, 20, 8, 2, 19, 21, 9],
      [27, 23, 30, 5, 26, 3, 22, 31],
      [0, 18, 14, 15, 25, 4, 17, 13]],
     8802065995613017004),
]
# ... and batches(30, 10, Rng(13))
BATCHES_30_10_SEED13 = [
    ([[4, 13, 27, 14, 6, 24, 22, 2, 12, 20],
      [1, 18, 21, 17, 7, 28, 3, 10, 0, 9],
      [26, 5, 11, 15, 23, 19, 29, 16, 8, 25]],
     17026080507310378606),
    ([[25, 2, 26, 21, 22, 23, 27, 15, 3, 0],
      [11, 20, 28, 7, 8, 13, 6, 5, 29, 9],
      [18, 19, 14, 17, 16, 4, 24, 10, 1, 12]],
     15605416940911205583),
    ([[28, 29, 19, 9, 0, 26, 2, 13, 17, 7],
      [12, 3, 22, 27, 14, 20, 16, 11, 4, 6],
      [18, 25, 1, 8, 24, 5, 10, 15, 21, 23]],
     14184753374512032560),
]


class TestBatchSchedule:
    @pytest.mark.parametrize("n, size, seed, want", [
        (32, 8, 11, BATCHES_32_8_SEED11), (30, 10, 13, BATCHES_30_10_SEED13)],
        ids=["32-8-seed11", "30-10-seed13"])
    def test_recorded_stream(self, n, size, seed, want):
        rng = sn.Rng(seed)
        stream = sn.batches(n, size, rng)
        for epoch, state in want:
            assert [next(stream).tolist() for _ in epoch] == epoch
            # the next epoch's shuffle is not drawn until its first batch
            assert rng.state == state

    def test_deterministic(self):
        a = sn.batches(32, 8, sn.Rng(11))
        b = sn.batches(32, 8, sn.Rng(11))
        for _ in range(12):
            assert np.array_equal(next(a), next(b))

    def test_epoch_partition(self):
        stream = sn.batches(32, 8, sn.Rng(12))
        seen = np.concatenate([next(stream) for _ in range(4)])
        assert sorted(seen.tolist()) == list(range(32))

    def test_batch_size_respected(self):
        stream = sn.batches(30, 10, sn.Rng(13))
        for _ in range(9):
            assert next(stream).shape == (10,)

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError):
            next(sn.batches(4, 8, sn.Rng(14)))


class TestShippedDivergenceBound:
    """Cross-profile drift stays far inside the replay guarantee's budget."""

    def test_divergence_small_on_shipped_shapes(self):
        from vtrain.fpround import exponent_scale_array, rnd_array
        from vtrain.cli import load_config
        from conftest import CONFIG_DIR

        budget = 0.25 * 2.0**-23
        for name in ("mlp", "logreg", "trend", "divergence", "tiny"):
            cfg = load_config(CONFIG_DIR / f"{name}.json")
            # the accumulator width the run really has, as protocol._run sets it
            profiles = [replace(p, b_tr=cfg.b_tr) for p in ALL_PROFILES]
            rng = sn.Rng(cfg.seed)
            X, y = sn.make_dataset(cfg.dataset_size, cfg.dim, cfg.classes, rng)
            params = [layer.init(rng) for layer in cfg.layers]
            stream = sn.batches(cfg.dataset_size, cfg.batch_size, rng)
            for idx in itertools.islice(stream, min(cfg.steps, 6)):
                cur = X[idx]
                for layer, ps in zip(cfg.layers, params):
                    raws = [layer.forward(cur, ps, p) for p in profiles]
                    tensor_scale = max(float(exponent_scale_array(r).max()) for r in raws)
                    for other in raws[1:]:
                        drift = np.abs(raws[0] - other).max()
                        assert drift < budget * tensor_scale, (name, layer.key, drift)
                    cur = rnd_array(raws[0], cfg.b_r)


# every registered order, plus chunks of 3 (a partial last chunk for most n
# below) and of 64 (longer than most n below)
EVERY_ORDER = ALL_NAMES + ("chunked:3", "chunked:64")


class TestAddSchedule:
    """Every kernel sum against the reference, which folds one add at a time;
    a ``pairwise`` sum runs ``pairwise_levels``."""

    @pytest.mark.parametrize("b_tr", (64, 50))
    @pytest.mark.parametrize("profile", by_name(*EVERY_ORDER))
    def test_reduce_matches_reference(self, profile, b_tr):
        rng = np.random.default_rng(40)
        p = replace(profile, b_tr=b_tr)
        for n in range(1, 71):
            for shape in ((n,), (2, 3, n)):
                a = rng.normal(size=shape) * np.exp2(rng.integers(-20, 20, size=shape))
                assert same_bits(sn.reduce_last_axis(a, p), fold_reference(a, p)), n

    @pytest.mark.parametrize("b_tr", (64, 50))
    @pytest.mark.parametrize("profile", by_name(*EVERY_ORDER))
    def test_dense_matches_reference(self, profile, b_tr, monkeypatch):
        # under the shipped element budget every sum here is built at once;
        # under a budget of 0 a row of terms at a time, and under 3 rows'
        # worth, batch 8 in blocks of 3, 3 and 2 rows
        p = replace(profile, b_tr=b_tr)
        shipped = sn._ELEMENT_BUDGET
        for rows in (None, 0, 3):
            rng = np.random.default_rng(41)
            for n in range(1, 71):
                for batch, n_out in ((2, 3), (8, 64)):
                    budget = shipped if rows is None else rows * n * n_out
                    monkeypatch.setattr(sn, "_ELEMENT_BUDGET", budget)
                    scale = np.exp2(rng.integers(-20, 20, size=(batch, n)))
                    x = rng.normal(size=(batch, n)) * scale
                    W = rng.normal(size=(n, n_out))
                    want = fold_reference(x[:, None, :] * W.T[None, :, :], p)
                    assert same_bits(sn.dense_forward(x, W, np.zeros(n_out), p), want + 0.0), n
                    g = rng.normal(size=(batch, n))
                    want = fold_reference(g[:, None, :] * W.T[None, :, :], p)
                    assert same_bits(sn.dense_input_grad(g, W.T, p), want), n

    def test_level_counts(self):
        for n in range(1, 300):
            assert len(sn.pairwise_levels(n)) == math.ceil(math.log2(n))

    @pytest.mark.parametrize("profile", by_name("pairwise"))
    def test_each_add_once_and_levels_independent(self, profile):
        for n in (1, 2, 5, 33, 64, 100):
            adds = []
            for level in sn.pairwise_levels(n):
                pairs = [(d + i * k, s + i * k) for d, s, count, k in level for i in range(count)]
                slots = [slot for pair in pairs for slot in pair]
                assert len(set(slots)) == len(slots)
                adds += pairs
            assert len(adds) == n - 1 and len(set(adds)) == n - 1


def _chain_cases():
    for c in (1, 3, 7, 64):
        for n in sorted({1, 2, c - 1, c, c + 1, 3 * c, 64, 65} - {0}):
            yield c, n


class TestRunningSums:
    """Every chain-shaped order is chain sums, one chunk of n terms when
    unchunked. At b_tr = 64 each is ``np.add.reduce`` on two or more lanes
    and ``np.add.accumulate`` on one; at b_tr = 50 it is a running sum
    rounded after every add. Each must be the add-by-add fold, bit for bit."""

    @pytest.mark.parametrize("inner", [(), (1,), (2,), (3,), (5,), (4, 3), (512,)], ids=str)
    @pytest.mark.parametrize("c, n", list(_chain_cases()))
    def test_matches_add_by_add_fold(self, c, n, inner):
        rng = np.random.default_rng(1000 * c + n)
        shape = (n, *inner)
        t = rng.normal(size=shape) * np.exp2(rng.integers(-30, 30, size=shape))
        t[rng.random(size=shape) < 0.2] = 0.0
        t[rng.random(size=shape) < 0.2] = -0.0
        for profile in (SEQ, REV, sn.get_profile(f"chunked:{c}")):
            for p in (profile, replace(profile, b_tr=50)):
                for terms in (t, np.full(shape, -0.0), np.where(t > 0, 0.0, -0.0)):
                    got = sn._sum_terms(terms.copy(), p)
                    want = fold_reference(np.moveaxis(terms, 0, -1), p)
                    assert same_bits(np.asarray(got), want), (p, n)


def test_kernels_leave_their_inputs_alone():
    rng = np.random.default_rng(42)
    x, W, g = rng.normal(size=(16, 40)), rng.normal(size=(40, 32)), rng.normal(size=(16, 32))
    b = rng.normal(size=32)
    arrays = (x, W, g, b)
    before = [a.copy() for a in arrays]
    for profile in map(sn.get_profile, EVERY_ORDER):
        for p in (profile, replace(profile, b_tr=50)):
            for a in (x[0], x, x.T, x.reshape(4, 4, 40), W[:, :3]):
                sn.reduce_last_axis(a, p)
            sn.dense_forward(x, W, b, p)
            sn.dense_forward(x[:, :3], W[:3, :4], b[:4], p)
            sn.dense_backward(g, x, W, p)
            sn.dense_backward(g[:, :4], x[:, :3], W[:3, :4], p)
    assert all(same_bits(a, a0) for a, a0 in zip(arrays, before))
