"""Trainer and auditor loops, threshold search, and the storage estimator.

Both parties execute the same replay engine; they differ only in how a
tensor leaves a computation stage. The trainer classifies each element
against the grid, writes the ternary code, and rounds. The auditor reads
the code and applies the replay correction. A third mode rounds without
reading anything, which is the negative control: at a training precision
``b_tr`` below 64 it demonstrates that rounding alone does not keep two
accumulation orders in sync.

Shared-randomness stream order is fixed and part of the protocol: the
dataset is drawn first, then dense-layer weights in stage order, then one
shuffle per epoch. Log write order is also fixed, and ``step_layout``
gives it: per step, forward stages in order, then the loss gradient, then
backward stages in reverse order, elements row-major.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import merkle, roundlog
from .fpround import (
    IGNORE,
    SCALE_FLOOR,
    check_b_tr,
    exponent_scale_array,
    replay,
    rnd_array,
    round_and_code,
    tau_bounds,
)
# Not called here, but bench/spans.py traces protocol.direction_array and protocol.rev_array.
from .fpround import direction_array, rev_array  # noqa: F401
from .roundlog import LogExhaustedError, LogReader, LogWriter
from .simnet import (
    SEQUENTIAL,
    BatchSchedule,
    DeviceProfile,
    Rng,
    bce_forward,
    build_stages,
    get_profile,
    init_weights,
    make_dataset,
    reduce_values,
    softmax_xent_forward,
)

DEFAULT_TAU = 0.25 * 2.0 ** -23


class AuditFailure(RuntimeError):
    """The audit could not be completed against the provided artifacts."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during a run."""


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_dim: int | None = None
    out_dim: int | None = None


@dataclass(frozen=True)
class TauPolicy:
    """Fixed threshold for every stage, or a per-stage-key table."""

    kind: str = "fixed"  # "fixed" | "adaptive"
    value: float = DEFAULT_TAU
    table: dict | None = None

    def lookup(self, stage_key: str) -> float:
        if self.kind == "fixed":
            return self.value
        if self.table is None or stage_key not in self.table:
            raise ValueError(f"adaptive tau table has no entry for {stage_key!r}")
        return float(self.table[stage_key])


@dataclass(frozen=True)
class TrainConfig:
    dataset_size: int
    dim: int
    classes: int
    layers: tuple[LayerSpec, ...]
    loss: str | None
    epochs: int
    batch_size: int
    learning_rate: float
    checkpoint_interval: int
    seed: int
    b_r: int = 32
    b_tr: int = 64
    b_m: int = 32
    tau_policy: TauPolicy = field(default_factory=TauPolicy)
    trainer_profile: str = "sequential"
    name: str = "run"

    def __post_init__(self):
        if self.b_m != 32:
            raise ValueError("supported model precision is b_m=32")
        if not 26 <= self.b_r <= self.b_m:
            raise ValueError("b_r must lie in [26, 32]")
        if self.tau_policy.kind == "fixed":
            taus = [self.tau_policy.value]
        else:
            taus = [float(v) for v in (self.tau_policy.table or {}).values()]
        check_b_tr(self.b_tr, self.b_r, min(taus, default=math.inf), self.max_fan_in())
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if self.dataset_size % self.batch_size != 0:
            raise ValueError("dataset size must be a multiple of batch size")
        if self.steps < 1:
            raise ValueError("config yields no training steps")
        if self.checkpoint_interval > self.steps:
            raise ValueError("checkpoint interval exceeds step count")
        if self.loss is not None and self.loss not in ("softmax_xent", "bce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.tau_policy.kind == "fixed" and self.tau_policy.value != 0.0:
            lo, hi = tau_bounds(self.b_r)
            if not lo <= self.tau_policy.value <= hi:
                raise ValueError(f"tau {self.tau_policy.value!r} outside [{lo!r}, {hi!r}]")
        get_profile(self.trainer_profile)

    @property
    def steps(self) -> int:
        return (self.dataset_size * self.epochs) // self.batch_size

    def max_fan_in(self) -> int:
        """Length of the longest profile-ordered reduction in one step.

        Dense stages sum over their input (forward) and output (input
        gradient) widths; the loss sums over the classes and the batch.
        """
        widths = [self.batch_size, self.classes]
        widths += [max(s.in_dim, s.out_dim) for s in self.layers if s.kind == "dense"]
        return max(widths)

    def stage_dims(self) -> list[tuple[str, int, int]]:
        """(stage_key, in_size, out_size) for each trunk stage, then the loss."""
        dims = []
        cur = self.dim
        for spec in self.layers:
            if spec.kind == "dense":
                dims.append((f"dense:{spec.in_dim}x{spec.out_dim}", spec.in_dim, spec.out_dim))
                cur = spec.out_dim
            else:
                dims.append((spec.kind, cur, cur))
        if self.loss is not None:
            dims.append((f"loss:{self.loss}", cur, 0))
        return dims


@dataclass
class StepStats:
    forward_directed: int = 0
    backward_directed: int = 0
    forward_corrections: int = 0
    backward_corrections: int = 0


@dataclass
class TrainOutput:
    root: bytes
    leaves: list[bytes]
    log_path: Path | None
    final_weights: list[np.ndarray]
    final_digest: bytes
    per_step: list[StepStats]
    entries_logged: int
    final_loss: float
    train_accuracy: float
    seconds: float
    checkpoints: list[list[np.ndarray]] | None = None

    @property
    def root_hex(self) -> str:
        return self.root.hex()


@dataclass
class AuditOutput:
    root: bytes
    leaves: list[bytes]
    final_digest: bytes
    corrections_forward: list[int]
    corrections_backward: list[int]
    entries_consumed: int
    seconds: float
    checkpoints: list[list[np.ndarray]] | None = None

    @property
    def root_hex(self) -> str:
        return self.root.hex()

    @property
    def total_corrections(self) -> int:
        return sum(self.corrections_forward) + sum(self.corrections_backward)


class _TrainerChannel:
    """Classify, record, round."""

    def __init__(self, writer: LogWriter, b_r: int):
        self.writer = writer
        self.b_r = b_r

    def process(self, values: np.ndarray, tau: float) -> tuple[np.ndarray, int, int]:
        rounded, codes = round_and_code(values, self.b_r, tau)
        self.writer.write_array(codes.reshape(-1))
        return rounded, int(np.count_nonzero(codes != IGNORE)), 0


class _AuditorChannel:
    """Read, replay."""

    def __init__(self, reader: LogReader, b_r: int):
        self.reader = reader
        self.b_r = b_r

    def process(self, values: np.ndarray, tau: float) -> tuple[np.ndarray, int, int]:
        codes = self.reader.read_array(values.size).reshape(values.shape)
        replayed, corrections = replay(values, self.b_r, codes)
        return replayed, 0, corrections


class _PlainChannel:
    """Round only; the negative control."""

    def __init__(self, b_r: int):
        self.b_r = b_r

    def process(self, values: np.ndarray, tau: float) -> tuple[np.ndarray, int, int]:
        return rnd_array(values, self.b_r), 0, 0


def _loss_forward(loss_kind: str, output, labels, profile):
    if loss_kind == "softmax_xent":
        return softmax_xent_forward(output, labels, profile)
    return bce_forward(output, labels, profile)


def _snapshot(stages) -> list[np.ndarray]:
    return [p.astype(np.float32) for s in stages for p in s.parameters()]


def _run(cfg: TrainConfig, profile: DeviceProfile, channel, keep_checkpoints: bool,
         tamper_after_step: int | None = None, tamper=None):
    profile = replace(profile, b_tr=cfg.b_tr)
    rng = Rng(cfg.seed)
    X, y = make_dataset(cfg.dataset_size, cfg.dim, cfg.classes, rng)
    stages = build_stages(cfg.layers)
    init_weights(stages, rng)
    for stage in stages:
        if stage.kind == "dense":
            stage.W = rnd_array(stage.W, cfg.b_r)
            stage.b = rnd_array(stage.b, cfg.b_r)
    schedule = BatchSchedule(cfg.dataset_size, cfg.batch_size, rng)
    if cfg.loss is None:
        raise ValueError("training requires a loss")

    taus = {key: cfg.tau_policy.lookup(key) for key, _, _ in cfg.stage_dims()}
    leaves: list[bytes] = []
    checkpoints: list[list[np.ndarray]] = []
    per_step: list[StepStats] = []
    loss_key = f"loss:{cfg.loss}"

    for t in range(1, cfg.steps + 1):
        idx = schedule.next_batch()
        xb, yb = X[idx], y[idx]
        stats = StepStats()

        values = [xb]
        cur = xb
        for stage in stages:
            raw = stage.forward(cur, profile)
            cur, directed, corrected = channel.process(raw, taus[stage.key])
            stats.forward_directed += directed
            stats.forward_corrections += corrected
            values.append(cur)

        loss_raw, grad_raw = _loss_forward(cfg.loss, cur, yb, profile)
        if not np.isfinite(loss_raw):
            raise TrainingDiverged(f"non-finite loss at step {t}")

        grad, directed, corrected = channel.process(grad_raw, taus[loss_key])
        stats.backward_directed += directed
        stats.backward_corrections += corrected
        for i in range(len(stages) - 1, -1, -1):
            raw = stages[i].backward(values[i], values[i + 1], grad, profile)
            grad, directed, corrected = channel.process(raw, taus[stages[i].key])
            stats.backward_directed += directed
            stats.backward_corrections += corrected

        # Stored parameters live on the grid; the update inputs are already
        # bit-identical between honest parties (synced tensors, canonical
        # gradient accumulation), so this rounding is hygiene, not sync.
        for stage in stages:
            if stage.kind == "dense":
                new_W, new_b = stage.apply_update(cfg.learning_rate)
                stage.W = rnd_array(new_W, cfg.b_r)
                stage.b = rnd_array(new_b, cfg.b_r)

        if tamper_after_step is not None and t == tamper_after_step:
            tamper(stages)

        per_step.append(stats)
        if t % cfg.checkpoint_interval == 0:
            params = [p for s in stages for p in s.parameters()]
            leaves.append(merkle.hash_weights(params, cfg.b_m))
            if keep_checkpoints:
                checkpoints.append(_snapshot(stages))

    tree = merkle.build(leaves)
    return tree, leaves, stages, per_step, (checkpoints if keep_checkpoints else None), (X, y)


def evaluate(cfg: TrainConfig, stages, profile: DeviceProfile, X, y) -> tuple[float, float]:
    """Loss and accuracy of the current weights over a dataset, grid-rounded."""
    profile = replace(profile, b_tr=cfg.b_tr)
    cur = X
    for stage in stages:
        cur = rnd_array(stage.forward(cur, profile), cfg.b_r)
    loss, _ = _loss_forward(cfg.loss, cur, y, profile)
    if cfg.loss == "softmax_xent":
        pred = cur.argmax(axis=1)
    else:
        pred = (cur.reshape(-1) >= 0.5).astype(int)
    accuracy = float(np.mean(pred == np.asarray(y).reshape(pred.shape)))
    return loss, accuracy


def train(cfg: TrainConfig, log_path, keep_checkpoints: bool = False,
          compress_log: bool = False, tamper_after_step: int | None = None,
          tamper=None) -> TrainOutput:
    """Run the trainer: produce the rounding log, checkpoints, and tree root.

    ``tamper_after_step``/``tamper`` inject a fault into the weights after
    a chosen step; they exist for dispute-game demonstrations and tests.
    """
    profile = get_profile(cfg.trainer_profile)
    start = time.perf_counter()
    writer = LogWriter(log_path, cfg.b_r, compress=compress_log)
    try:
        tree, leaves, stages, per_step, checkpoints, (X, y) = _run(
            cfg, profile, _TrainerChannel(writer, cfg.b_r), keep_checkpoints,
            tamper_after_step=tamper_after_step, tamper=tamper,
        )
    finally:
        writer.close()
    final_loss, accuracy = evaluate(cfg, stages, profile, X, y)
    params = [p for s in stages for p in s.parameters()]
    return TrainOutput(
        root=tree.root,
        leaves=leaves,
        log_path=Path(log_path),
        final_weights=_snapshot(stages),
        final_digest=merkle.hash_weights(params, cfg.b_m),
        per_step=per_step,
        entries_logged=writer.entry_count,
        final_loss=final_loss,
        train_accuracy=accuracy,
        seconds=time.perf_counter() - start,
        checkpoints=checkpoints,
    )


def audit(cfg: TrainConfig, auditor_profile: DeviceProfile | str, log,
          keep_checkpoints: bool = False) -> AuditOutput:
    """Replay the run on the auditor's profile, consuming the trainer's log."""
    profile = get_profile(auditor_profile) if isinstance(auditor_profile, str) else auditor_profile
    reader = log if isinstance(log, LogReader) else LogReader(log)
    if reader.b_r != cfg.b_r:
        raise AuditFailure(f"log b_r {reader.b_r} does not match config b_r {cfg.b_r}")
    start = time.perf_counter()
    try:
        tree, leaves, stages, per_step, checkpoints, _ = _run(
            cfg, profile, _AuditorChannel(reader, cfg.b_r), keep_checkpoints
        )
    except LogExhaustedError as e:
        raise AuditFailure("operation-count mismatch") from e
    if reader.remaining != 0:
        raise AuditFailure("operation-count mismatch")
    params = [p for s in stages for p in s.parameters()]
    return AuditOutput(
        root=tree.root,
        leaves=leaves,
        final_digest=merkle.hash_weights(params, cfg.b_m),
        corrections_forward=[s.forward_corrections for s in per_step],
        corrections_backward=[s.backward_corrections for s in per_step],
        entries_consumed=reader.entry_count,
        seconds=time.perf_counter() - start,
        checkpoints=checkpoints,
    )


def audit_without_corrections(cfg: TrainConfig, auditor_profile: DeviceProfile | str,
                              keep_checkpoints: bool = False) -> AuditOutput:
    """Replay with plain rounding and no log: the negative control."""
    profile = get_profile(auditor_profile) if isinstance(auditor_profile, str) else auditor_profile
    start = time.perf_counter()
    tree, leaves, stages, per_step, checkpoints, _ = _run(
        cfg, profile, _PlainChannel(cfg.b_r), keep_checkpoints
    )
    params = [p for s in stages for p in s.parameters()]
    return AuditOutput(
        root=tree.root,
        leaves=leaves,
        final_digest=merkle.hash_weights(params, cfg.b_m),
        corrections_forward=[0] * len(per_step),
        corrections_backward=[0] * len(per_step),
        entries_consumed=0,
        seconds=time.perf_counter() - start,
        checkpoints=checkpoints,
    )


def weight_l2_distance(a, b) -> float:
    """Euclidean distance between two parameter sets, sequential accumulation."""
    if len(a) != len(b):
        raise ValueError("parameter lists differ in length")
    squares = []
    for ta, tb in zip(a, b):
        ta = np.asarray(ta, dtype=np.float64)
        tb = np.asarray(tb, dtype=np.float64)
        if ta.shape != tb.shape:
            raise ValueError(f"parameter shape mismatch: {ta.shape} vs {tb.shape}")
        squares.append(((ta - tb) ** 2).reshape(-1))
    if not squares:
        return 0.0
    flat = np.concatenate(squares)
    return float(np.sqrt(reduce_values(flat, SEQUENTIAL)))


@dataclass(frozen=True)
class LogEstimate:
    entries: int
    payload_bytes: int
    file_bytes: int


def step_layout(cfg: TrainConfig) -> list[tuple[str, int]]:
    """Per-step log write order as (slot, entries) pairs.

    Forward outputs of the trunk stages in order, then the loss gradient,
    then each trunk stage's input gradient in reverse stage order. A slot
    is the pass and the stage key, e.g. ``"forward:dense:4x8"`` or
    ``"backward:loss:bce"``; the loss's forward output is a scalar that is
    never logged, and weight gradients log nothing.
    """
    dims = cfg.stage_dims()
    forward = [(f"forward:{key}", cfg.batch_size * out_size)
               for key, _, out_size in dims if not key.startswith("loss:")]
    backward = [(f"backward:{key}", cfg.batch_size * in_size)
                for key, in_size, _ in reversed(dims)]
    return forward + backward


def estimate_log_entries(cfg: TrainConfig) -> LogEstimate:
    """Upper-bound log size from the config alone: ``step_layout`` per step."""
    entries = cfg.steps * sum(n for _, n in step_layout(cfg))
    return LogEstimate(
        entries=entries,
        payload_bytes=roundlog.payload_bytes_for(entries),
        file_bytes=roundlog.file_bytes_for(entries),
    )


def collect_divergence_samples(layer: LayerSpec, b_r: int,
                               profiles: tuple[DeviceProfile, DeviceProfile],
                               n_samples: int, rng: Rng) -> list[float]:
    """Normalized distances from straddle cases between two profiles.

    Runs the layer on both profiles over random inputs whose magnitudes
    span several binades (accumulation error is easiest to surface when
    sums cancel). Whenever the grid-rounded outputs differ and the raw
    outputs sit on opposite sides of the shared grid target, both
    distances, scaled by each value's binary exponent, are recorded.
    """
    stages = build_stages([layer])
    init_weights(stages, rng)
    stage = stages[0]
    in_dim = layer.in_dim if layer.kind == "dense" else (layer.in_dim or 16)
    samples: list[float] = []
    chunk = 256
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        done += m
        u1 = rng.floats_block(m * in_dim).reshape(m, in_dim)
        u2 = rng.floats_block(m * in_dim).reshape(m, in_dim)
        x = (2.0 * u1 - 1.0) * np.exp2(-np.floor(u2 * 12.0))
        y1 = stage.forward(x, profiles[0])
        y2 = stage.forward(x, profiles[1])
        r1 = rnd_array(y1, b_r)
        r2 = rnd_array(y2, b_r)
        straddle = (r1 != r2) & (((y1 > r1) & (y2 < r2)) | ((y1 < r1) & (y2 > r2)))
        if not straddle.any():
            continue
        for y, r in ((y1, r1), (y2, r2)):
            scale = np.maximum(exponent_scale_array(y[straddle]), SCALE_FLOOR)
            samples.extend((np.abs(y[straddle] - r[straddle]) / scale).tolist())
    return samples


def search_tau(samples, b_r: int, iters: int) -> float:
    """Binary-search the largest threshold no recorded straddle undercuts."""
    lower, upper = tau_bounds(b_r)
    if not samples:
        return upper
    tau = lower
    for _ in range(iters):
        tau = (lower + upper) / 2.0
        if all(p >= tau for p in samples):
            lower = tau
        else:
            upper = tau
    return tau


def threshold_search(layer: LayerSpec, b_r: int,
                     profiles: tuple[DeviceProfile, DeviceProfile],
                     n_samples: int, iters: int, rng: Rng) -> float:
    """Per-layer adaptive threshold from observed cross-profile straddles."""
    if n_samples < 1 or iters < 1:
        raise ValueError("n_samples and iters must be >= 1")
    samples = collect_divergence_samples(layer, b_r, profiles, n_samples, rng)
    return search_tau(samples, b_r, iters)


def config_with(cfg: TrainConfig, **kwargs) -> TrainConfig:
    """Copy a config with some fields replaced."""
    return replace(cfg, **kwargs)
