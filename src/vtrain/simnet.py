"""Deterministic-by-profile numerical kernel.

Cross-device nondeterminism is modeled by two things. A ``DeviceProfile``
names one of four deterministic association orders for floating point
reductions, standing in for an accelerator architecture. The run config
sets the accumulator width ``b_tr``: every partial sum of a
profile-ordered reduction is rounded onto the FP64 values whose low
``64 - b_tr`` mantissa bits are zero (nearest, ties to even;
``fpround.round_to_width``, which also rounds onto the model grid), so two
orders disagree by about Higham's recursive-summation bound
``gamma(n - 1) * sum |x|`` at that width. At ``b_tr = 64`` no partial sum
is rounded and the orders differ only by FP64 reassociation.

Elementwise operations are order-free and therefore identical across
profiles. Every reduction that feeds values flowing through the network
(layer outputs, input gradients, loss terms) honors the active profile;
parameter-gradient accumulation is pinned to exact sequential FP64 so the
weight update is a pure function of the (already synchronized)
activations and gradients.

A layer kind is one frozen class (``LAYER_KINDS`` maps a config's
``kind`` to it) holding its shape but not its weights: the engine passes
every call the layer's list of parameters.

A dense layer's backward is two parts: ``dense_input_grad``, the
profile-ordered sum that flows on to the previous layer, and
``dense_param_grads``, the sequential sums the weight update reads.
``Dense.backward`` runs both through ``dense_backward``; the engine calls
only ``param_grads`` on the first layer, because nothing consumes its
input gradient, and only ``input_grad`` (every kind has one) when it
recomputes a gradient on another order, because nothing there reads the
weight gradients.

Each order has one route at every width. ``sequential``, ``reversed``
and ``chunked`` are recursive summation, a chain of adds: a sum inside
every chunk at once (an unchunked order is one chunk of all n terms, and
``reversed`` reads a reversed view), a chain over the chunk sums, and one
add for a partial last chunk. Only the chain step depends on ``b_tr``:
below 64 it is a running sum rounded after every add; at 64 it is one
``np.add.reduce`` off the fast axis over two or more lanes (numpy's
one-add-at-a-time summation, at memory speed) and a running sum on one.
``pairwise`` is a tree: its adds, built once per n by
``pairwise_levels``, fall into levels of independent adds, each level a
few strided runs of slots, run as one whole-array add per run (256 terms
are 8 adds).

A dense layer's sums (output, input gradient, weight gradient) are each a
sum of outer products, one per term of the reduced axis, built with the
longer side innermost. Each is built and summed, as above, in blocks of
rows: as many rows as keep a block's products within ``_ELEMENT_BUDGET``
elements, and at least one, so a large sum's whole product tensor is
never built. Every output element gets the same IEEE products and the
same adds whatever the block size, so results, logs and roots do not
depend on it.

Randomness is SplitMix64, specified by constants and identical on every
platform, so two parties given the same seed draw the same datasets,
weights, and batch orders. Its draws are counter-based (draw k is a
function of the state plus k times a constant), so ``Rng`` computes a long
run of draws in cache-sized blocks, written straight into the output, and
``make_dataset`` builds X a block of rows at a time.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .fpround import round_to_width

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws per block: the block and one scratch buffer of it (128 KiB each)
# stay in cache through the mixing passes.
_BLOCK = 1 << 14
# k * gamma for k = 1 .. _BLOCK, mod 2^64: the state increments of one block
_GAMMA_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))
_M1, _M2 = np.uint64(_MIX1), np.uint64(_MIX2)


class Rng:
    """SplitMix64. One 64-bit state; each draw adds the golden gamma and mixes.

    Draw k after state s is a pure function of ``s + k * gamma``, so the
    block methods fill their output a cache-sized block at a time, in
    place, and leave the state where n ``next_u64`` calls would.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def _fill(self, out: np.ndarray):
        """Write the next ``out.size`` draws into the flat uint64 array ``out``,
        yielding each block once it holds its draws."""
        tmp = np.empty(min(out.size, _BLOCK), dtype=np.uint64)
        for lo in range(0, out.size, _BLOCK):
            z = out[lo : lo + _BLOCK]
            t = tmp[: z.size]
            np.add(_GAMMA_STEPS[: z.size], np.uint64(self.state), out=z)
            self.state = (self.state + z.size * _GAMMA) & MASK64
            for shift, mix in ((_S30, _M1), (_S27, _M2)):
                np.right_shift(z, shift, out=t)
                z ^= t
                z *= mix
            np.right_shift(z, _S31, out=t)
            z ^= t
            yield z

    def next_block(self, n: int) -> np.ndarray:
        """n consecutive draws, vectorized; identical to n next_u64 calls."""
        out = np.empty(n, dtype=np.uint64)
        for _ in self._fill(out):
            pass
        return out

    def floats_into(self, out: np.ndarray) -> np.ndarray:
        """Fill the flat float64 array ``out`` with ``out.size`` floats in [0, 1),
        the top 53 bits of each draw scaled by 2^-53."""
        for z in self._fill(out.view(np.uint64)):
            z >>= _S11
            np.multiply(z, 2.0**-53, out=z.view(np.float64))
        return out

    def floats_block(self, n: int) -> np.ndarray:
        return self.floats_into(np.empty(n))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates; swap i takes ``next_u64() % (i + 1)``, i from n - 1 down."""
        n = len(items)
        if n < 2:
            return
        js = self.next_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class DeviceProfile:
    """A deterministic accumulation order for reductions, and nothing else:
    two profiles are equal exactly when they sum in the same order at the
    same width, whatever name looked them up (``get_profile("chunked:7")
    == PROFILES["chunked7"]``).

    ``b_tr`` is the accumulator width every partial sum is rounded to; the
    registered profiles carry 64 (exact FP64 adds), and a run replaces it
    with its config's ``b_tr``.
    """

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


SEQUENTIAL = DeviceProfile("sequential")

PROFILES: dict[str, DeviceProfile] = {
    "sequential": SEQUENTIAL,
    "reversed": DeviceProfile("reversed"),
    "pairwise": DeviceProfile("pairwise"),
    "chunked7": DeviceProfile("chunked", 7),
}


def get_profile(name: str) -> DeviceProfile:
    """Look up a registered profile, or parse "chunked:N": N is ASCII digits
    without a leading zero, so each chunk size has one name."""
    if name in PROFILES:
        return PROFILES[name]
    if re.fullmatch("chunked:[1-9][0-9]*", name):
        return DeviceProfile("chunked", int(name[len("chunked:"):]))
    raise ValueError(f"unknown device profile {name!r}; known: {sorted(PROFILES)} "
                     "and chunked:N for N >= 1")


def _runs(pairs: list[tuple[int, int]]) -> tuple:
    """Independent adds, grouped into strided runs."""
    runs: list[list[int]] = []
    for dst, src in sorted(pairs):
        if runs:
            d0, s0, count, stride = runs[-1]
            last = d0 + (count - 1) * stride
            if src - dst == s0 - d0 and (count == 1 or dst - last == stride):
                runs[-1] = [d0, s0, count + 1, dst - last]
                continue
        runs.append([dst, src, 1, 1])
    return tuple(tuple(run) for run in runs)


@functools.lru_cache(maxsize=256)
def pairwise_levels(n: int) -> tuple:
    """The adds of a ``pairwise`` sum of n terms, in levels of independent adds.

    Term k starts in slot k, each add is ``slot[dst] += slot[src]``, and the
    sum ends in slot 0. Each half is summed recursively (the left half has
    ``n // 2`` terms), then the right half's sum is added into the left's,
    one level above the higher half: ceil(log2 n) levels. A level is a
    tuple of strided runs ``(dst, src, count, stride)``, the adds ``(dst +
    i * stride, src + i * stride)`` for ``i < count``.
    """
    levels: list[list[tuple[int, int]]] = []

    def split(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return 0
        mid = lo + (hi - lo) // 2
        level = max(split(lo, mid), split(mid, hi))
        if level == len(levels):
            levels.append([])
        levels[level].append((lo, mid))
        return level + 1

    split(0, n)
    return tuple(_runs(pairs) for pairs in levels)


def _running_sum(t: np.ndarray, b_tr: int) -> np.ndarray:
    """Sum over the first axis left to right into ``t[0, ...]``, each partial
    sum rounded to the accumulator width."""
    acc = t[0, ...]  # a view even when t is 1-D, so it is rounded in place
    for term in t[1:]:
        np.add(acc, term, out=acc)
        round_to_width(acc, b_tr)
    return acc


def _sum_terms(t: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """Sum over the first axis of C-contiguous terms in the profile's order.

    ``t`` may be overwritten: the caller hands over an array no one else
    holds. ``pairwise`` runs ``pairwise_levels`` in place; every other
    order is the chain the module docstring describes. At 64 a chain over
    two or more lanes is ``np.add.reduce`` from ``-0.0``, IEEE's exact
    additive identity (numpy's own is +0.0), which adds in index order
    (numpy's reductions never negate a stride); on one lane, where numpy
    would sum pairwise, it is ``np.add.accumulate``. An empty sum is +0.0.
    """
    n, b_tr = t.shape[0], profile.b_tr
    if n == 0:
        return np.zeros(t.shape[1:])
    if profile.strategy == "pairwise":
        for level in pairwise_levels(n):
            for dst, src, count, stride in level:
                span = (count - 1) * stride + 1
                acc = t[dst : dst + span : stride]
                acc += t[src : src + span : stride]
                if b_tr < 64:
                    round_to_width(acc, b_tr)
        return t[0, ...].copy()
    if profile.strategy == "reversed":
        t = t[::-1]
    c = min(profile.chunk_size or n, n)
    whole = n - n % c
    chunks = t[:whole].reshape(whole // c, c, *t.shape[1:])
    if b_tr < 64:
        total = _running_sum(_running_sum(chunks.swapaxes(0, 1), b_tr), b_tr)
        if whole < n:
            total += _running_sum(t[whole:], b_tr)
            round_to_width(total, b_tr)
        return total.copy()
    if t[0].size > 1:
        sums = np.add.reduce(chunks, axis=1, initial=-0.0)
        total = np.add.reduce(sums, axis=0, initial=-0.0)
        if whole < n:
            total += np.add.reduce(t[whole:], axis=0, initial=-0.0)
        return total
    total = np.add.accumulate(np.add.accumulate(chunks, axis=1)[:, -1], axis=0)[-1, ...]
    if whole < n:
        np.add(total, np.add.accumulate(t[whole:], axis=0)[-1, ...], out=total)
    return total


def reduce_last_axis(a: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """Sum over the last axis in the profile's association order.

    Each element of the result is produced by the exact sequence of IEEE
    additions the profile prescribes, independent of array layout; when
    ``profile.b_tr`` is below 64, each addition's result is rounded to that
    width. The input is not modified.
    """
    a = np.asarray(a, dtype=np.float64)
    return _sum_terms(a.transpose(-1, *range(a.ndim - 1)).copy(), profile)


# Products per block of a dense sum (1 MiB), unless one row of terms holds
# more. Each block runs the sum's schedule again, so smaller blocks pay its
# strided level adds more often.
_ELEMENT_BUDGET = 1 << 17


def _outer_sum(A: np.ndarray, B: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """Sum over k of the outer product A[k] x B[k], in the profile's order over k.

    Each element is the same IEEE product and the same sequence of adds as
    reducing the materialised (n, p, q) product tensor over its first axis.
    For p > q it sums B[k] x A[k] and transposes (products commute exactly),
    so each term's longer side is innermost. The products are built and
    summed a block of rows of p at a time, as many as fit
    ``_ELEMENT_BUDGET`` (at least one), so a block holds at most
    max(``_ELEMENT_BUDGET``, n * q) products.
    """
    n, p, q = A.shape[0], A.shape[1], B.shape[1]
    if p > q:
        return np.ascontiguousarray(_outer_sum(B, A, profile).T)
    A, B = np.ascontiguousarray(A), np.ascontiguousarray(B)
    if n * p * q <= _ELEMENT_BUDGET:
        return _sum_terms(A[:, :, None] * B[:, None, :], profile)
    rows = max(1, _ELEMENT_BUDGET // (n * q))
    out = np.empty((p, q))
    for lo in range(0, p, rows):
        out[lo : lo + rows] = _sum_terms(A[:, lo : lo + rows, None] * B[:, None, :], profile)
    return out


def dense_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """x @ W + b with profile-ordered accumulation over the input axis."""
    if x.shape[1] != W.shape[0] or b.shape[0] != W.shape[1]:
        raise ValueError(f"dense shape mismatch: x{x.shape} W{W.shape} b{b.shape}")
    return _outer_sum(x.T, W, profile) + b


def dense_input_grad(grad_out: np.ndarray, W: np.ndarray, profile: DeviceProfile) -> np.ndarray:
    """grad_out @ W.T, accumulated over the output axis in the profile's order.

    Its values flow on through the graph and get the log-and-round
    treatment, so this is the one backward sum that can diverge.
    """
    if grad_out.shape[1] != W.shape[1]:
        raise ValueError(f"dense backward shape mismatch: g{grad_out.shape} W{W.shape}")
    return _outer_sum(grad_out.T, W.T, profile)


def dense_param_grads(grad_out: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """grad_W and grad_b, accumulated over the batch in exact sequential order.

    Weight-gradient sums are not logged, so they must not be a source of
    divergence: they ignore the profile and its accumulator width.
    """
    if grad_out.shape[0] != x.shape[0]:
        raise ValueError(f"dense backward shape mismatch: g{grad_out.shape} x{x.shape}")
    grad_W = _outer_sum(x, grad_out, SEQUENTIAL)
    # exact sequential sums only read their terms, so grad_out is not copied
    grad_b = _sum_terms(np.ascontiguousarray(grad_out, dtype=np.float64), SEQUENTIAL)
    return grad_W, grad_b


def dense_backward(
    grad_out: np.ndarray, x: np.ndarray, W: np.ndarray, profile: DeviceProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear-layer gradients: ``dense_input_grad`` then ``dense_param_grads``."""
    return (dense_input_grad(grad_out, W, profile), *dense_param_grads(grad_out, x))


def softmax_xent_forward(
    logits: np.ndarray, labels: np.ndarray, profile: DeviceProfile
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch plus its gradient w.r.t. logits.

    Max-subtracted for stability; the class sum and the batch mean both
    reduce in the profile's order.
    """
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,) or np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= k:
        raise ValueError("invalid class labels")
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
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


def check_count(name: str, value, minimum: int | None = None) -> None:
    """Reject a count that is not an integer (``bool`` included) or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class Dense:
    """``x @ W + b``. Parameters ``[W, b]``: W uniform in +-1/sqrt(in_dim), b zero."""

    in_dim: int
    out_dim: int

    grid_closed = False

    def __post_init__(self):
        check_count("dense layer in", self.in_dim, 1)
        check_count("dense layer out", self.out_dim, 1)

    @property
    def key(self) -> str:
        return f"dense:{self.in_dim}x{self.out_dim}"

    @property
    def fan_in(self) -> int:
        """The forward sums ``in_dim`` terms, the input gradient ``out_dim``."""
        return max(self.in_dim, self.out_dim)

    @classmethod
    def from_entry(cls, entry: dict) -> Dense:
        return cls(entry.get("in"), entry.get("out"))

    def out_width(self, width: int) -> int:
        if width != self.in_dim:
            raise ValueError(f"dense layer input {self.in_dim!r} does not match "
                             f"incoming width {width!r}")
        return self.out_dim

    def init(self, rng: Rng) -> list[np.ndarray]:
        """Draws W row-major, so a given seed produces the same bits everywhere."""
        bound = 1.0 / np.sqrt(self.in_dim)
        u = rng.floats_block(self.in_dim * self.out_dim).reshape(self.in_dim, self.out_dim)
        return [bound * (2.0 * u - 1.0), np.zeros(self.out_dim)]

    def forward(self, x: np.ndarray, params, profile: DeviceProfile) -> np.ndarray:
        W, b = params
        return dense_forward(x, W, b, profile)

    def backward(self, x, y, grad, params, profile: DeviceProfile):
        grad_x, grad_W, grad_b = dense_backward(grad, x, params[0], profile)
        return grad_x, [grad_W, grad_b]

    def input_grad(self, x, y, grad, params, profile: DeviceProfile) -> np.ndarray:
        return dense_input_grad(grad, params[0], profile)

    def param_grads(self, x: np.ndarray, grad: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients only, for a first layer whose input gradient feeds nothing."""
        return list(dense_param_grads(grad, x))


@dataclass(frozen=True)
class _Elementwise:
    """A parameter-free layer that keeps its input's width, so it takes none."""

    grid_closed = False
    fan_in = 0  # sums nothing

    @classmethod
    def from_entry(cls, entry: dict) -> _Elementwise:
        if "in" in entry or "out" in entry:
            raise ValueError(f"{cls.key} layer takes no in or out: it keeps its input's width")
        return cls()

    def out_width(self, width: int) -> int:
        return width

    def init(self, rng: Rng) -> list[np.ndarray]:
        return []

    def backward(self, x, y, grad, params, profile):
        return self.input_grad(x, y, grad, params, profile), []

    def param_grads(self, x: np.ndarray, grad: np.ndarray) -> list[np.ndarray]:
        return []


class Relu(_Elementwise):
    key = "relu"
    # max(x, 0) and grad * (x > 0) keep values on the b_r grid; see protocol
    grid_closed = True

    def forward(self, x, params, profile):
        return np.maximum(x, 0.0)

    def input_grad(self, x, y, grad, params, profile):
        return grad * (x > 0.0)


class Sigmoid(_Elementwise):
    key = "sigmoid"

    def forward(self, x, params, profile):
        return 1.0 / (1.0 + np.exp(-x))

    def input_grad(self, x, y, grad, params, profile):
        # from y, this layer's rounded output: the value that flowed on
        return grad * y * (1.0 - y)


LAYER_KINDS = {"dense": Dense, "relu": Relu, "sigmoid": Sigmoid}


def layer_from_entry(entry: dict):
    """The layer a config entry names: ``kind``, and ``in`` and ``out`` for a dense layer."""
    kind = entry["kind"]
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    return LAYER_KINDS[kind].from_entry(entry)


def make_dataset(n: int, dim: int, classes: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Clustered synthetic classification data, fully determined by the rng.

    Class centers are drawn on the unit hypercube, points sit within a
    0.1-radius uniform offset of their center, labels assign round-robin.
    X is built a block of rows at a time, each row ``centers[label] + 0.1 *
    offset``, so no temporary of X's size is made.
    """
    if n < 1 or dim < 1 or classes < 1:
        raise ValueError("n, dim, classes must all be >= 1")
    centers = rng.floats_block(classes * dim).reshape(classes, dim)
    labels = np.arange(n) % classes
    X = np.empty((n, dim))
    rows = max(1, _BLOCK // dim)
    for lo in range(0, n, rows):
        block = X[lo : lo + rows]
        rng.floats_into(block.reshape(-1))
        block *= 0.1
        block += centers[labels[lo : lo + rows]]
    return X, labels


def batches(n: int, batch_size: int, rng: Rng):
    """Consecutive ``batch_size`` slices of a fresh Fisher-Yates permutation
    per epoch, without end; each epoch's shuffle is drawn at its first batch.

    A ``batch_size`` above n raises ValueError at the first draw.
    """
    if batch_size > n:
        raise ValueError("batch size exceeds dataset size")
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        perm = np.asarray(perm)
        for lo in range(0, n - batch_size + 1, batch_size):
            yield perm[lo : lo + batch_size]
