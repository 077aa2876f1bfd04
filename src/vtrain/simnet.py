"""Deterministic-by-profile numerical kernel.

Cross-device nondeterminism is modeled by two things. A ``DeviceProfile``
names one of four deterministic association orders for floating point
reductions, standing in for an accelerator architecture. The run config
sets the accumulator width ``b_tr``: every partial sum of a
profile-ordered reduction is rounded onto the FP64 values whose low
``64 - b_tr`` mantissa bits are zero (nearest, ties to even), so two
orders disagree by about Higham's recursive-summation bound
``gamma(n - 1) * sum |x|`` at that width. At ``b_tr = 64`` no partial sum
is rounded and the orders differ only by FP64 reassociation.

Elementwise operations are order-free and therefore identical across
profiles. Every reduction that feeds values flowing through the network
(layer outputs, input gradients, loss terms) honors the active profile;
parameter-gradient accumulation is pinned to exact sequential FP64 so the
weight update is a pure function of the (already synchronized)
activations and gradients.

A dense layer's sums (output, input gradient, weight gradient) are each a
sum of outer products, one per term of the reduced axis. Terms of 512 or
more elements are formed one at a time and folded in the profile's order,
so the (batch, out, in) product tensor is never built; smaller terms are
built at once and reduced with ``reduce_last_axis``. Both ways perform the
same IEEE products and adds in the same order, so results, logs and roots
are bit-identical either way.

Randomness is SplitMix64, specified by constants and identical on every
platform, so two parties given the same seed draw the same datasets,
weights, and batch orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Rng:
    """SplitMix64. One 64-bit state; each draw adds the golden gamma and mixes."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        return self.next_u64() % n

    def next_block(self, n: int) -> np.ndarray:
        """n consecutive draws, vectorized; identical to n next_u64 calls."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = idx * np.uint64(_GAMMA) + np.uint64(self.state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self.state = (self.state + n * _GAMMA) & MASK64
        return z

    def floats_block(self, n: int) -> np.ndarray:
        return (self.next_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates; swap i takes ``next_below(i + 1)``, i from n - 1 down."""
        n = len(items)
        if n < 2:
            return
        js = self.next_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class DeviceProfile:
    """A named, deterministic accumulation order for reductions.

    ``b_tr`` is the accumulator width every partial sum is rounded to; the
    registered profiles carry 64 (exact FP64 adds), and a run replaces it
    with its config's ``b_tr``.
    """

    name: str
    strategy: str  # "sequential" | "reversed" | "pairwise" | "chunked"
    chunk_size: int | None = None
    b_tr: int = 64

    def __post_init__(self):
        if self.strategy not in ("sequential", "reversed", "pairwise", "chunked"):
            raise ValueError(f"unknown reduction strategy {self.strategy!r}")
        if self.strategy == "chunked":
            if not self.chunk_size or self.chunk_size < 1:
                raise ValueError("chunked strategy needs chunk_size >= 1")
        elif self.chunk_size is not None:
            raise ValueError(f"{self.strategy} strategy takes no chunk_size")
        if not isinstance(self.b_tr, (int, np.integer)) or not 12 < self.b_tr <= 64:
            raise ValueError(f"b_tr must be an integer in [13, 64], got {self.b_tr!r}")


SEQUENTIAL = DeviceProfile("sequential", "sequential")

PROFILES: dict[str, DeviceProfile] = {
    "sequential": SEQUENTIAL,
    "reversed": DeviceProfile("reversed", "reversed"),
    "pairwise": DeviceProfile("pairwise", "pairwise"),
    "chunked7": DeviceProfile("chunked7", "chunked", 7),
}


def get_profile(name: str) -> DeviceProfile:
    """Look up a registered profile, or parse "chunked:N"."""
    if name in PROFILES:
        return PROFILES[name]
    if name.startswith("chunked:"):
        return DeviceProfile(name, "chunked", int(name.split(":", 1)[1]))
    raise ValueError(f"unknown device profile {name!r}; known: {sorted(PROFILES)}")


def round_to_width(a: np.ndarray, b_tr: int) -> np.ndarray:
    """Round a float64 array in place onto the b_tr accumulator grid.

    The grid is the FP64 values whose low ``64 - b_tr`` mantissa bits are
    zero (``b_tr - 12`` mantissa bits kept); rounding is to nearest, ties
    to even. Adding half-minus-one plus the kept lowest bit, then clearing
    the dropped bits, lets the carry roll into the exponent at binade
    edges, as IEEE rounding does.
    """
    drop = 64 - b_tr
    bits = a.view(np.uint64)
    bits += np.uint64((1 << (drop - 1)) - 1) + ((bits >> np.uint64(drop)) & np.uint64(1))
    bits &= np.uint64(MASK64 ^ ((1 << drop) - 1))
    return a


def _add(acc: np.ndarray, y: np.ndarray, b_tr: int) -> np.ndarray:
    """One accumulator add, in place: acc + y, rounded to the accumulator width."""
    acc += y
    return acc if b_tr == 64 else round_to_width(acc, b_tr)


def _ordered_sum(seq, n: int, profile: DeviceProfile) -> np.ndarray:
    """Sum n terms in the profile's association order.

    ``seq(lo, hi, reverse)`` returns the one-add-at-a-time fold of terms
    ``lo..hi-1`` (last to first when ``reverse``), each partial sum rounded
    to ``profile.b_tr``; the profile decides how those folds combine. Folds
    are combined in place, so ``seq`` must return an array no caller holds.
    """
    b_tr = profile.b_tr
    if profile.strategy == "sequential":
        return seq(0, n, False)
    if profile.strategy == "reversed":
        return seq(0, n, True)
    if profile.strategy == "pairwise":

        def pairwise(lo, hi):
            if hi - lo == 1:
                return seq(lo, hi, False)
            mid = lo + (hi - lo) // 2
            return _add(pairwise(lo, mid), pairwise(mid, hi), b_tr)

        return pairwise(0, n)
    c = profile.chunk_size
    acc = seq(0, min(c, n), False)
    for lo in range(c, n, c):
        acc = _add(acc, seq(lo, min(lo + c, n), False), b_tr)
    return acc


def _seq_last(a: np.ndarray, reverse: bool, b_tr: int) -> np.ndarray:
    if a.shape[-1] == 1:
        return a[..., 0].copy()
    if reverse:
        a = a[..., ::-1]
    if b_tr == 64:
        # cumsum is a strict running accumulation, so its last slot is the
        # exact left-to-right IEEE fold; tests pin this against an explicit loop
        return np.cumsum(a, axis=-1)[..., -1]
    cols = np.ascontiguousarray(np.moveaxis(a, -1, 0))
    acc = np.array(cols[0])
    for col in cols[1:]:
        acc += col
        round_to_width(acc, b_tr)
    return acc


def reduce_last_axis(a: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """Sum over the last axis in the profile's association order.

    Each element of the result is produced by the exact sequence of IEEE
    additions the profile prescribes, independent of array layout; when
    ``profile.b_tr`` is below 64, each addition's result is rounded to that
    width.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape[:-1])
    return _ordered_sum(lambda lo, hi, rev: _seq_last(a[..., lo:hi], rev, profile.b_tr),
                        n, profile)


def reduce_values(values, profile: DeviceProfile) -> float:
    """Scalar reduction of a 1-d sequence."""
    return float(reduce_last_axis(np.asarray(values, dtype=np.float64), profile))


# Below this many elements per term, building all n terms at once and
# folding them with reduce_last_axis beats a Python loop over the terms.
_MIN_FOLD_TERM = 512


def _outer_sum(A: np.ndarray, B: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """Sum over k of the outer product A[k] x B[k], in the profile's order over k.

    Each element is the same IEEE product and the same sequence of adds as
    reducing the materialised (p, q, n) product tensor over its last axis.
    Large terms are formed one at a time into a reused buffer, so that
    tensor is never built.
    """
    n, p, q = A.shape[0], A.shape[1], B.shape[1]
    if n == 0 or p * q < _MIN_FOLD_TERM:
        return reduce_last_axis(A.T[:, None, :] * B.T[None, :, :], profile)
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    b_tr = profile.b_tr
    term = np.empty((p, q))

    def seq(lo, hi, reverse):
        ks = range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)
        acc = np.multiply.outer(A[ks[0]], B[ks[0]])
        for k in ks[1:]:
            np.multiply.outer(A[k], B[k], out=term)
            acc += term
            if b_tr < 64:
                round_to_width(acc, b_tr)
        return acc

    return _ordered_sum(seq, n, profile)


def dense_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """x @ W + b with profile-ordered accumulation over the input axis."""
    if x.shape[1] != W.shape[0] or b.shape[0] != W.shape[1]:
        raise ValueError(f"dense shape mismatch: x{x.shape} W{W.shape} b{b.shape}")
    return _outer_sum(x.T, W, profile) + b


def dense_backward(
    grad_out: np.ndarray, x: np.ndarray, W: np.ndarray, profile: DeviceProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear-layer gradients.

    grad_x accumulates in the active profile's order (its values flow on
    through the graph and get the log-and-round treatment). grad_W and
    grad_b accumulate sequentially regardless of profile: weight-gradient
    sums are not logged, so they must not be a source of divergence.
    """
    if grad_out.shape != (x.shape[0], W.shape[1]):
        raise ValueError(f"dense backward shape mismatch: g{grad_out.shape} x{x.shape} W{W.shape}")
    grad_x = _outer_sum(grad_out.T, W.T, profile)
    grad_W = _outer_sum(x, grad_out, SEQUENTIAL)
    grad_b = reduce_last_axis(np.ascontiguousarray(grad_out.T), SEQUENTIAL)
    return grad_x, grad_W, grad_b


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0.0)


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through sigmoid given its output y."""
    return grad_out * y * (1.0 - y)


def softmax_xent_forward(
    logits: np.ndarray, labels: np.ndarray, profile: DeviceProfile
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus its gradient w.r.t. logits.

    Max-subtracted for stability; the class sum and the batch mean both
    reduce in the profile's order.
    """
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        raise ValueError("invalid class labels")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    denom = reduce_last_axis(e, profile)
    per_sample = np.log(denom) - z[np.arange(n), labels]
    loss = float(reduce_last_axis(per_sample[None, :], profile)[0]) / n
    grad = e / denom[:, None]
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def bce_forward(
    probs: np.ndarray, labels: np.ndarray, profile: DeviceProfile
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on probabilities plus gradient w.r.t. them."""
    n = probs.shape[0]
    y = np.asarray(labels, dtype=np.float64).reshape(probs.shape)
    per_sample = -(y * np.log(probs) + (1.0 - y) * np.log(1.0 - probs))
    loss = float(reduce_last_axis(per_sample.reshape(1, -1), profile)[0]) / per_sample.size
    grad = (probs - y) / (probs * (1.0 - probs)) / per_sample.size
    return loss, grad


class DenseStage:
    kind = "dense"

    def __init__(self, in_dim: int, out_dim: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = np.zeros((in_dim, out_dim))
        self.b = np.zeros(out_dim)
        self.grad_W = None
        self.grad_b = None

    @property
    def key(self) -> str:
        return f"dense:{self.in_dim}x{self.out_dim}"

    def forward(self, x: np.ndarray, profile: DeviceProfile) -> np.ndarray:
        return dense_forward(x, self.W, self.b, profile)

    def backward(self, x: np.ndarray, y: np.ndarray, grad_out: np.ndarray,
                 profile: DeviceProfile) -> np.ndarray:
        grad_x, self.grad_W, self.grad_b = dense_backward(grad_out, x, self.W, profile)
        return grad_x

    def parameters(self) -> list[np.ndarray]:
        return [self.W, self.b]

    def apply_update(self, lr: float) -> list[np.ndarray]:
        return [self.W - lr * self.grad_W, self.b - lr * self.grad_b]


class ReluStage:
    kind = "relu"
    key = "relu"

    def forward(self, x: np.ndarray, profile: DeviceProfile) -> np.ndarray:
        return relu_forward(x)

    def backward(self, x, y, grad_out, profile) -> np.ndarray:
        return relu_backward(x, grad_out)

    def parameters(self) -> list[np.ndarray]:
        return []


class SigmoidStage:
    kind = "sigmoid"
    key = "sigmoid"

    def forward(self, x: np.ndarray, profile: DeviceProfile) -> np.ndarray:
        return sigmoid_forward(x)

    def backward(self, x, y, grad_out, profile) -> np.ndarray:
        # y is this stage's rounded output, the value that flowed on
        return sigmoid_backward(y, grad_out)

    def parameters(self) -> list[np.ndarray]:
        return []


_STAGE_KINDS = {"relu": ReluStage, "sigmoid": SigmoidStage}
LOSS_KINDS = ("softmax_xent", "bce")


def build_stages(layer_specs) -> list:
    """Instantiate trunk stages from ``LayerSpec``s (kind, in_dim, out_dim)."""
    stages = []
    for spec in layer_specs:
        if spec.kind == "dense":
            stages.append(DenseStage(spec.in_dim, spec.out_dim))
        elif spec.kind in _STAGE_KINDS:
            stages.append(_STAGE_KINDS[spec.kind]())
        else:
            raise ValueError(f"unknown layer kind {spec.kind!r}")
    return stages


def init_weights(stages, rng: Rng) -> None:
    """Fill dense parameters: W uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], b zero.

    Draw order is stage order then row-major within each weight matrix, so
    a given seed produces the same bits everywhere.
    """
    for stage in stages:
        if stage.kind != "dense":
            continue
        bound = 1.0 / np.sqrt(stage.in_dim)
        u = rng.floats_block(stage.in_dim * stage.out_dim).reshape(stage.in_dim, stage.out_dim)
        stage.W = bound * (2.0 * u - 1.0)
        stage.b = np.zeros(stage.out_dim)


def make_dataset(n: int, dim: int, classes: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Clustered synthetic classification data, fully determined by the rng.

    Class centers are drawn on the unit hypercube, points sit within a
    0.1-radius uniform offset of their center, labels assign round-robin.
    """
    if n < 1 or dim < 1 or classes < 1:
        raise ValueError("n, dim, classes must all be >= 1")
    centers = rng.floats_block(classes * dim).reshape(classes, dim)
    labels = np.arange(n) % classes
    offsets = rng.floats_block(n * dim).reshape(n, dim)
    X = centers[labels] + 0.1 * offsets
    return X, labels


class BatchSchedule:
    """Consecutive B-slices of a fresh Fisher-Yates permutation per epoch."""

    def __init__(self, n: int, batch_size: int, rng: Rng):
        if batch_size > n:
            raise ValueError("batch size exceeds dataset size")
        self.n = n
        self.batch_size = batch_size
        self.rng = rng
        self.steps_per_epoch = n // batch_size
        self._perm: list[int] = []
        self._step_in_epoch = 0

    def next_batch(self) -> np.ndarray:
        if self._step_in_epoch == 0 or self._step_in_epoch >= self.steps_per_epoch:
            self._perm = list(range(self.n))
            self.rng.shuffle(self._perm)
            self._step_in_epoch = 0
        lo = self._step_in_epoch * self.batch_size
        self._step_in_epoch += 1
        return np.asarray(self._perm[lo : lo + self.batch_size])
