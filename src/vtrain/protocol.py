"""Trainer and auditor loops, threshold search, and the storage estimator.

Both parties execute the same replay engine; they differ only in how a
tensor leaves a computation stage. The trainer classifies each element
against the grid, writes the ternary code, and rounds. The auditor reads
the code and applies the replay correction. A third mode rounds without
reading anything, which is the negative control: at a training precision
``b_tr`` below 64 it demonstrates that rounding alone does not keep two
accumulation orders in sync.

A channel's ``process(values, tau)`` returns the values that flow on and
one count: directed entries for the trainer, corrections for the auditor,
0 for the control. ``_forward`` is the one layer loop, for each step of
``_run`` and for ``evaluate``. ``_run`` returns one record, ``RunOutput``,
with a (forward, backward) pair of counts per step; ``audit`` returns it
as is and ``train`` adds the log size, final loss and accuracy. A run that
diverges raises ``TrainingDiverged`` with the step.

Only values that hardware nondeterminism can push apart are logged: the
outputs of profile-ordered reductions (dense outputs and input gradients,
the loss gradient) and of transcendental elementwise stages (sigmoid).
Two kinds of stage output are never logged. A ReLU past the first stage
maps grid values to grid values, so rounding them is the identity. The
first stage's input gradient feeds nothing, so it is not even computed.
``TrainConfig.log_slots`` walks the layers once to list what is logged;
config validation, ``_run`` and ``estimate_log_entries`` all read that list.

``TrainConfig.from_dict`` maps a run-config JSON document; each default
is stated once, on the dataclass. ``tau`` is a number or a table by
``log_slots`` key, read through ``tau_for``.

Layers (``simnet.LAYER_KINDS``) hold no weights: ``_run`` keeps a list of
parameters per layer, and treats every parameter alike.

Shared-randomness stream order is fixed and part of the protocol: the
dataset is drawn first, then each layer's initial parameters in stage
order (only dense layers draw), then one shuffle per epoch. Log write
order is also fixed, and ``log_slots`` gives it: per step, logged forward
outputs in stage order, then the loss gradient, then logged input
gradients in reverse stage order, elements row-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import merkle, roundlog
from .fpround import (
    IGNORE,
    OutOfRange,
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
    DeviceProfile,
    Rng,
    batches,
    bce_forward,
    check_count,
    get_profile,
    layer_from_entry,
    make_dataset,
    softmax_xent_forward,
)

DEFAULT_TAU = 0.25 * 2.0 ** -23


class AuditFailure(RuntimeError):
    """The audit could not be completed against the provided artifacts."""


class TrainingDiverged(RuntimeError):
    """The loss turned non-finite, or a value left the grid's range, at ``step``."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}")
        self.step = step


@dataclass(frozen=True)
class Slot:
    """One tensor logged per step. ``stage`` indexes the layers, ``len(layers)`` for the loss."""

    pass_: str  # "forward" | "backward"
    stage: int
    key: str
    entries: int


@dataclass(frozen=True)
class TrainConfig:
    dataset_size: int
    dim: int
    classes: int
    layers: tuple  # of simnet layers: Dense, Relu, Sigmoid
    loss: str
    epochs: int
    batch_size: int
    learning_rate: float
    checkpoint_interval: int
    seed: int
    b_r: int = 32
    b_tr: int = 64
    tau: float | dict[str, float] = DEFAULT_TAU  # fixed, or a table by log_slots key
    trainer_profile: str = "sequential"
    name: str = "run"

    # Integer fields, each with its least value (None: any integer).
    _COUNTS = {"dataset_size": 1, "dim": 1, "classes": 1, "epochs": None,
               "batch_size": 1, "checkpoint_interval": 1, "seed": None}

    def __post_init__(self):
        for name, minimum in self._COUNTS.items():
            check_count(name, getattr(self, name), minimum)
        if not 26 <= self.b_r <= 32:
            raise ValueError("b_r must lie in [26, 32]")
        if self.loss not in ("softmax_xent", "bce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not math.isfinite(lr):
            raise ValueError(f"learning rate must be a finite number, got {lr!r}")
        slots = self.log_slots()
        width = next(s.entries for s in slots if s.stage == len(self.layers)) // self.batch_size
        want = self.classes if self.loss == "softmax_xent" else 1
        if width != want:
            raise ValueError(f"final width {width!r} does not fit {self.loss}, which needs {want}")
        taus = list(self.tau.values()) if isinstance(self.tau, dict) else [self.tau]
        lo, hi = tau_bounds(self.b_r)
        for tau in taus:
            if not (tau == 0.0 or lo <= tau <= hi):
                raise ValueError(f"tau {tau!r} is neither 0.0 nor in [{lo!r}, {hi!r}]")
        for slot in slots:
            self.tau_for(slot.key)
        check_b_tr(self.b_tr, self.b_r, min(taus, default=math.inf), self.max_fan_in())
        if self.dataset_size % self.batch_size != 0:
            raise ValueError("dataset size must be a multiple of batch size")
        if self.steps < 1:
            raise ValueError("config yields no training steps")
        if self.steps % self.checkpoint_interval != 0:
            raise ValueError(f"checkpoint interval does not divide the {self.steps} steps")
        if not isinstance(self.trainer_profile, str):
            raise ValueError(f"trainer profile must be a name, got {self.trainer_profile!r}")
        get_profile(self.trainer_profile)
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or any(c in "/\\\0" for c in name):
            raise ValueError(f"run name must be a plain file name, got {name!r}")

    @classmethod
    def from_dict(cls, doc) -> TrainConfig:
        """The config a run-config JSON document describes; a key it leaves
        out is not passed on, so its field takes the default."""
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        layers = tuple(layer_from_entry(entry) for entry in doc["model"]["layers"])
        if "b_m" in doc and doc["b_m"] != 32:
            raise ValueError(f"supported model precision is b_m=32, got {doc['b_m']!r}")
        given = {key: doc[key] for key in ("b_r", "b_tr", "trainer_profile", "name") if key in doc}
        if "tau" in doc:  # {"policy": "fixed", "value": V} or {"policy": "adaptive", "table": T}
            policy = doc["tau"]["policy"]
            if policy not in ("fixed", "adaptive"):
                raise ValueError(f"unknown tau policy {policy!r}, want 'fixed' or 'adaptive'")
            given["tau"] = (float(doc["tau"]["value"]) if policy == "fixed" else
                            {key: float(v) for key, v in dict(doc["tau"]["table"]).items()})
        ds = doc["dataset"]
        required = ("epochs", "batch_size", "learning_rate", "checkpoint_interval", "seed")
        return cls(dataset_size=ds["size"], dim=ds["dim"], classes=ds["classes"], layers=layers,
                   loss=doc["model"].get("loss"), **{key: doc[key] for key in required}, **given)

    def tau_for(self, key: str) -> float:
        """The fixed tau, or the adaptive table's entry for a logged slot's key."""
        if not isinstance(self.tau, dict):
            return self.tau
        if key not in self.tau:
            raise ValueError(f"adaptive tau table has no entry for {key!r}")
        return self.tau[key]

    @property
    def steps(self) -> int:
        return (self.dataset_size * self.epochs) // self.batch_size

    def max_fan_in(self) -> int:
        """Length of the longest profile-ordered reduction in one step: a
        layer's ``fan_in``, or the loss's sum over the classes or the batch."""
        return max([self.batch_size, self.classes] + [layer.fan_in for layer in self.layers])

    def log_slots(self) -> list[Slot]:
        """The tensors one step logs, in log write order; checks the chain of widths.

        Forward outputs in stage order, the loss gradient, then input
        gradients in reverse stage order. The first stage's input gradient
        feeds nothing and has no slot. Past the first stage a grid-closed
        layer's input is on the ``b_r`` grid (a channel output, or another
        grid-closed layer's) and stays there, so it has no slot either; a
        grid-closed first stage sees the raw batch and keeps its forward
        slot.
        """
        forward, backward = [], []
        width = self.dim
        for i, layer in enumerate(self.layers):
            in_width, width = width, layer.out_width(width)
            if i == 0 or not layer.grid_closed:
                forward.append(Slot("forward", i, layer.key, self.batch_size * width))
            if i > 0 and not layer.grid_closed:
                backward.append(Slot("backward", i, layer.key, self.batch_size * in_width))
        loss = Slot("backward", len(self.layers), f"loss:{self.loss}", self.batch_size * width)
        return forward + [loss] + backward[::-1]


@dataclass
class RunOutput:
    """What one pass of the replay engine leaves behind."""

    tree: merkle.MerkleTree  # over the checkpoint digests; the last is the final weights'
    params: list[list[np.ndarray]]  # per layer, on the b_r grid
    per_step: list[tuple[int, int]]  # the channel's (forward, backward) counts
    checkpoints: list[list[np.ndarray]] | None

    @property
    def root(self) -> bytes:
        return self.tree.root

    @property
    def root_hex(self) -> str:
        return self.tree.root_hex

    @property
    def total_count(self) -> int:
        """Directed entries for the trainer, replay corrections for the auditor."""
        return sum(f + b for f, b in self.per_step)


@dataclass
class TrainOutput(RunOutput):
    entries_logged: int
    final_loss: float
    train_accuracy: float


class _TrainerChannel:
    """Classify, record, round; counts directed entries."""

    def __init__(self, writer: LogWriter, b_r: int):
        self.writer = writer
        self.b_r = b_r

    def process(self, values: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
        rounded, codes = round_and_code(values, self.b_r, tau)
        self.writer.write_array(codes.reshape(-1))
        return rounded, int(np.count_nonzero(codes != IGNORE))


class _AuditorChannel:
    """Read, replay; counts corrections."""

    def __init__(self, reader: LogReader, b_r: int):
        self.reader = reader
        self.b_r = b_r

    def process(self, values: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
        return replay(values, self.b_r, self.reader.read_array(values.size).reshape(values.shape))


class _PlainChannel:
    """Round only; the negative control. Counts nothing."""

    def __init__(self, b_r: int):
        self.b_r = b_r

    def process(self, values: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
        return rnd_array(values, self.b_r), 0


def _loss_forward(loss_kind: str, output, labels, profile):
    if loss_kind == "softmax_xent":
        return softmax_xent_forward(output, labels, profile)
    return bce_forward(output, labels, profile)


def _slot_taus(cfg: TrainConfig) -> dict[tuple[str, int], float]:
    """Tau per logged slot by (pass, stage): an output goes through the channel iff it has one."""
    return {(s.pass_, s.stage): cfg.tau_for(s.key) for s in cfg.log_slots()}


def _forward(layers, params, x, profile, process, taus) -> tuple[list[np.ndarray], int]:
    """The input and every layer's output, each one with a forward slot sent
    through ``process``; and the sum of ``process``'s counts."""
    values, count = [x], 0
    for i, layer in enumerate(layers):
        out = layer.forward(values[-1], params[i], profile)
        tau = taus.get(("forward", i))
        if tau is not None:
            out, n = process(out, tau)
            count += n
        values.append(out)
    return values, count


def _run(cfg: TrainConfig, profile: DeviceProfile, channel, keep_checkpoints: bool,
         tamper=None) -> tuple[RunOutput, tuple[np.ndarray, np.ndarray]]:
    """One pass of the engine; returns the record and the dataset it drew."""
    profile = replace(profile, b_tr=cfg.b_tr)
    rng = Rng(cfg.seed)
    X, y = make_dataset(cfg.dataset_size, cfg.dim, cfg.classes, rng)
    layers = cfg.layers
    params = [[rnd_array(p, cfg.b_r) for p in layer.init(rng)] for layer in layers]
    batch_indices = batches(cfg.dataset_size, cfg.batch_size, rng)

    taus = _slot_taus(cfg)
    leaves: list[bytes] = []
    checkpoints: list[list[np.ndarray]] = []
    per_step: list[tuple[int, int]] = []

    t = 0
    try:
        for t, idx in zip(range(1, cfg.steps + 1), batch_indices):
            values, forward = _forward(layers, params, X[idx], profile, channel.process, taus)

            loss_raw, grad_raw = _loss_forward(cfg.loss, values[-1], y[idx], profile)
            if not np.isfinite(loss_raw):
                raise TrainingDiverged(t)

            grad, backward = channel.process(grad_raw, taus["backward", len(layers)])
            grads: list = [None] * len(layers)
            for i in range(len(layers) - 1, 0, -1):
                grad, grads[i] = layers[i].backward(values[i], values[i + 1], grad, params[i],
                                                    profile)
                tau = taus.get(("backward", i))
                if tau is not None:
                    grad, n = channel.process(grad, tau)
                    backward += n
            if layers:
                grads[0] = layers[0].param_grads(values[0], grad)

            # Stored parameters live on the grid; the update inputs are already
            # bit-identical between honest parties (synced tensors, canonical
            # gradient accumulation), so this rounding is hygiene, not sync.
            params = [[rnd_array(p - cfg.learning_rate * g, cfg.b_r) for p, g in zip(ps, gs)]
                      for ps, gs in zip(params, grads)]

            if tamper is not None:
                tamper(t, params)

            per_step.append((forward, backward))
            if t % cfg.checkpoint_interval == 0:
                flat = [p for ps in params for p in ps]
                leaves.append(merkle.hash_weights(flat))
                if keep_checkpoints:
                    checkpoints.append([p.astype(np.float32) for p in flat])
    except OutOfRange as e:
        raise TrainingDiverged(t) from e

    return RunOutput(
        tree=merkle.build(leaves),
        params=params,
        per_step=per_step,
        checkpoints=checkpoints if keep_checkpoints else None,
    ), (X, y)


def evaluate(cfg: TrainConfig, params, profile: DeviceProfile, X, y) -> tuple[float, float]:
    """Loss and accuracy of per-layer parameters over a dataset, rounded as
    the negative control rounds.

    The network runs ``batch_size`` rows at a time, so memory does not grow
    with the dataset; each output row depends only on its own input row.
    The loss runs once, over all the outputs, so its sum keeps its order.
    """
    profile = replace(profile, b_tr=cfg.b_tr)
    process, taus = _PlainChannel(cfg.b_r).process, _slot_taus(cfg)
    outputs = []
    for lo in range(0, len(X), cfg.batch_size):
        values, _ = _forward(cfg.layers, params, X[lo : lo + cfg.batch_size], profile, process,
                             taus)
        outputs.append(values[-1])
    out = np.concatenate(outputs)
    loss, _ = _loss_forward(cfg.loss, out, y, profile)
    if cfg.loss == "softmax_xent":
        pred = out.argmax(axis=1)
    else:
        pred = (out.reshape(-1) >= 0.5).astype(int)
    accuracy = float(np.mean(pred == np.asarray(y).reshape(pred.shape)))
    return loss, accuracy


def train(cfg: TrainConfig, log_path, keep_checkpoints: bool = False,
          compress_log: bool = False, tamper=None) -> TrainOutput:
    """Run the trainer: produce the rounding log, checkpoints, and tree root.

    ``tamper(step, params)``, if given, runs after every step's update with
    the step number and the per-layer parameter lists, and may change them
    in place. It exists for dispute-game demonstrations and tests.

    A run that raises leaves no log behind: a partial log is well formed
    and would read as the log of a shorter run.
    """
    profile = get_profile(cfg.trainer_profile)
    writer = LogWriter(log_path, cfg.b_r, compress=compress_log)
    try:
        with writer:
            run, (X, y) = _run(cfg, profile, _TrainerChannel(writer, cfg.b_r),
                               keep_checkpoints, tamper)
    except BaseException:
        writer.path.unlink(missing_ok=True)
        raise
    final_loss, accuracy = evaluate(cfg, run.params, profile, X, y)
    return TrainOutput(**vars(run), entries_logged=writer.entry_count,
                       final_loss=final_loss, train_accuracy=accuracy)


def audit(cfg: TrainConfig, auditor_profile: str, log_path) -> RunOutput:
    """Replay the run on the named profile, consuming the trainer's log."""
    profile = get_profile(auditor_profile)
    reader = LogReader(log_path)
    if reader.b_r != cfg.b_r:
        raise AuditFailure(f"log b_r {reader.b_r} does not match config b_r {cfg.b_r}")
    try:
        run, _ = _run(cfg, profile, _AuditorChannel(reader, cfg.b_r), False)
    except LogExhaustedError as e:
        raise AuditFailure("operation-count mismatch") from e
    except TrainingDiverged as e:
        raise AuditFailure(str(e)) from e
    if reader.remaining != 0:
        raise AuditFailure("operation-count mismatch")
    return run


def audit_without_corrections(cfg: TrainConfig, auditor_profile: str,
                              keep_checkpoints: bool = False) -> RunOutput:
    """Replay with plain rounding and no log: the negative control."""
    try:
        run, _ = _run(cfg, get_profile(auditor_profile), _PlainChannel(cfg.b_r),
                      keep_checkpoints)
    except TrainingDiverged as e:
        raise AuditFailure(str(e)) from e
    return run


@dataclass(frozen=True)
class LogEstimate:
    entries: int
    payload_bytes: int
    file_bytes: int


def estimate_log_entries(cfg: TrainConfig) -> LogEstimate:
    """Upper-bound log size from the config alone: ``log_slots`` per step."""
    entries = cfg.steps * sum(s.entries for s in cfg.log_slots())
    return LogEstimate(
        entries=entries,
        payload_bytes=roundlog.payload_bytes_for(entries),
        file_bytes=roundlog.file_bytes_for(entries),
    )


def collect_divergence_samples(layer, b_r: int,
                               profiles: tuple[DeviceProfile, DeviceProfile],
                               n_samples: int, rng: Rng) -> list[float]:
    """Normalized distances from straddle cases between two profiles.

    Runs the layer on both profiles over random inputs whose magnitudes
    span several binades (accumulation error is easiest to surface when
    sums cancel). Whenever the grid-rounded outputs differ and the raw
    outputs sit on opposite sides of the shared grid target, both
    distances, scaled by each value's binary exponent, are recorded. An
    elementwise layer given no width is sampled 16 wide.
    """
    params = layer.init(rng)
    in_dim = layer.in_width or 16
    samples: list[float] = []
    chunk = 256
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        done += m
        u1 = rng.floats_block(m * in_dim).reshape(m, in_dim)
        u2 = rng.floats_block(m * in_dim).reshape(m, in_dim)
        x = (2.0 * u1 - 1.0) * np.exp2(-np.floor(u2 * 12.0))
        y1 = layer.forward(x, params, profiles[0])
        y2 = layer.forward(x, params, profiles[1])
        r1 = rnd_array(y1, b_r)
        r2 = rnd_array(y2, b_r)
        straddle = (r1 != r2) & (((y1 > r1) & (y2 < r2)) | ((y1 < r1) & (y2 > r2)))
        if not straddle.any():
            continue
        for y, r in ((y1, r1), (y2, r2)):
            scale = exponent_scale_array(y[straddle])
            samples.extend((np.abs(y[straddle] - r[straddle]) / scale).tolist())
    return samples


def search_tau(samples, b_r: int) -> float:
    """The largest threshold below every recorded straddle, clipped to ``tau_bounds``.

    The code test is strict (``d > t``), so a straddle at distance ``d``
    is directed only under a tau below ``d``: the result is the double
    just below ``min(samples)``. With no samples it is the upper bound;
    when the smallest sample is at or below the lower bound, it is the
    lower bound.
    """
    lower, upper = tau_bounds(b_r)
    if not samples:
        return upper
    return min(upper, max(lower, math.nextafter(min(samples), 0.0)))


def threshold_search(layer, b_r: int,
                     profiles: tuple[DeviceProfile, DeviceProfile],
                     n_samples: int, rng: Rng) -> float:
    """Per-layer adaptive threshold from observed cross-profile straddles."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = collect_divergence_samples(layer, b_r, profiles, n_samples, rng)
    return search_tau(samples, b_r)
