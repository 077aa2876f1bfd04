"""Trainer and auditor loops, the threshold search, and the storage estimator.

Both parties execute the same replay engine; they differ only in how a
tensor leaves a computation stage. The trainer classifies each element
against the grid, writes the ternary code, and rounds. The auditor reads
the code and applies the replay correction. A third mode rounds without
reading anything, which is the negative control: at a training precision
``b_tr`` below 64 it demonstrates that rounding alone does not keep two
accumulation orders in sync.

Every party hands the engine one function, ``process(values, slot,
stage)``: ``slot`` is the ``Slot`` the tensor is logged under, and
``stage(profile)`` recomputes the tensor from the inputs the engine just
used. It returns the values that flow on and one count: directed entries
for the trainer, which rounds at ``cfg.tau_for(slot.key)``, corrections
for the auditor, 0 for the control. ``threshold_search`` is a fourth
party, which rounds like the control, counts nothing, and records where
``stage`` on each other summation order straddles. ``_forward`` is the
one layer loop, for ``_run`` and ``evaluate``. ``_run`` returns one
record, ``RunOutput``, with a (forward, backward) pair of counts per
step; ``audit`` returns it as is and ``train`` adds the log size, final
loss and accuracy. A run that diverges, final evaluation included,
raises ``TrainingDiverged``.

Only values that hardware nondeterminism can push apart are logged: the
outputs of profile-ordered reductions (dense outputs and input gradients,
the loss gradient) and of transcendental elementwise stages (sigmoid).
Two kinds of stage output are never logged. A ReLU past the first stage
maps grid values to grid values, so rounding them is the identity. The
first stage's input gradient feeds nothing, so it is not even computed.
``TrainConfig.log_slots`` walks the layers once to list what is logged;
config validation, ``_run`` and ``estimate_log_entries`` all read that list.

``TrainConfig.from_dict`` maps a run-config JSON document; each default
is stated once, on the dataclass. ``tau`` is a number or a table with
exactly the ``log_slots`` keys, read through ``tau_for``.

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
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import merkle, roundlog
from .fpround import (
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
from .roundlog import LogReader, LogWriter
from .simnet import (
    _ELEMENT_BUDGET,
    PROFILES,
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


def _finite_number(name: str, value) -> float:
    """``value`` as a float if it is a JSON number in float range: not a bool
    or a string, NaN, an infinity or an integer past float range."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


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
        if self.loss not in ("softmax_xent", "bce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        _finite_number("learning rate", self.learning_rate)
        slots = self.log_slots()
        width = next(s.entries for s in slots if s.stage == len(self.layers)) // self.batch_size
        want = self.classes if self.loss == "softmax_xent" else 1
        if width != want:
            raise ValueError(f"final width {width!r} does not fit {self.loss}, which needs {want}")
        keys = {s.key for s in slots}
        if isinstance(self.tau, dict) and self.tau.keys() != keys:
            raise ValueError(f"adaptive tau table keys {sorted(self.tau)} are not "
                             f"the logged slots' keys {sorted(keys)}")
        taus = list(self.tau.values()) if isinstance(self.tau, dict) else [self.tau]
        lo, hi = tau_bounds(self.b_r)
        for tau in taus:
            if not (tau == 0.0 or lo <= tau <= hi):
                raise ValueError(f"tau {tau!r} is neither 0.0 nor in [{lo!r}, {hi!r}]")
        check_b_tr(self.b_tr, self.b_r, min(taus), self.max_fan_in())
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
            tau = doc["tau"]
            policy = tau["policy"]
            if policy not in ("fixed", "adaptive"):
                raise ValueError(f"unknown tau policy {policy!r}, want 'fixed' or 'adaptive'")
            if policy == "adaptive" and not isinstance(tau["table"], dict):
                raise ValueError("adaptive tau table must be a JSON object, "
                                 f"got {type(tau['table']).__name__}")
            given["tau"] = (_finite_number("tau", tau["value"]) if policy == "fixed" else
                            {key: _finite_number(f"tau of {key!r}", v)
                             for key, v in tau["table"].items()})
        ds = doc["dataset"]
        required = ("epochs", "batch_size", "learning_rate", "checkpoint_interval", "seed")
        return cls(dataset_size=ds["size"], dim=ds["dim"], classes=ds["classes"], layers=layers,
                   loss=doc["model"].get("loss"), **{key: doc[key] for key in required}, **given)

    def tau_for(self, key: str) -> float:
        """The fixed tau, or the adaptive table's entry for a logged slot's key."""
        return self.tau[key] if isinstance(self.tau, dict) else self.tau

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
        layer's input is on the ``b_r`` grid (a ``process`` output, or another
        grid-closed layer's) and stays there, so it has no slot either; a
        grid-closed first stage sees the raw batch and keeps its forward
        slot.
        """
        forward, backward = [], []
        width = self.dim
        for i, layer in enumerate(self.layers):
            incoming, width = width, layer.out_width(width)
            if i == 0 or not layer.grid_closed:
                forward.append(Slot("forward", i, layer.key, self.batch_size * width))
            if i > 0 and not layer.grid_closed:
                backward.append(Slot("backward", i, layer.key, self.batch_size * incoming))
        loss = Slot("backward", len(self.layers), f"loss:{self.loss}", self.batch_size * width)
        return forward + [loss] + backward[::-1]


@dataclass
class RunOutput:
    """What one pass of the replay engine leaves behind."""

    tree: merkle.MerkleTree  # over the checkpoint digests; the last is the final weights'
    params: list[list[np.ndarray]]  # per layer, on the b_r grid
    per_step: list[tuple[int, int]]  # process's (forward, backward) counts
    checkpoints: list[list[np.ndarray]] | None

    @property
    def root(self) -> bytes:
        return self.tree.root

    @property
    def root_hex(self) -> str:
        return self.tree.root_hex


@dataclass
class TrainOutput(RunOutput):
    entries_logged: int
    final_loss: float
    train_accuracy: float


def _trainer(writer: LogWriter, cfg: TrainConfig):
    """Classify at the slot's tau, record, round; counts directed entries."""

    def process(values: np.ndarray, slot: Slot, stage) -> tuple[np.ndarray, int]:
        rounded, codes, directed = round_and_code(values, cfg.b_r, cfg.tau_for(slot.key))
        writer.write_array(codes.reshape(-1))
        return rounded, directed

    return process


def _auditor(reader: LogReader, b_r: int):
    """Read, replay; counts corrections."""

    def process(values: np.ndarray, slot: Slot, stage) -> tuple[np.ndarray, int]:
        return replay(values, b_r, reader.read_array(values.size).reshape(values.shape))

    return process


def _plain(b_r: int):
    """Round only; the negative control. Counts nothing."""

    def process(values: np.ndarray, slot: Slot, stage) -> tuple[np.ndarray, int]:
        return rnd_array(values, b_r), 0

    return process


def _loss_forward(loss_kind: str, output, labels, profile):
    forward = softmax_xent_forward if loss_kind == "softmax_xent" else bce_forward
    return forward(output, labels, profile)


def _slot_map(cfg: TrainConfig) -> dict[tuple[str, int], Slot]:
    """Logged slots by (pass, stage): an output goes through ``process`` iff it has one."""
    return {(s.pass_, s.stage): s for s in cfg.log_slots()}


def _forward(layers, params, x, profile, process, slots) -> tuple[list[np.ndarray], int]:
    """The input and every layer's output, each one with a forward slot sent
    through ``process``; and the sum of ``process``'s counts."""
    values, count = [x], 0
    for i, layer in enumerate(layers):
        stage = partial(layer.forward, values[-1], params[i])
        out = stage(profile)
        slot = slots.get(("forward", i))
        if slot is not None:
            out, n = process(out, slot, stage)
            count += n
        values.append(out)
    return values, count


# A diverging run overflows, divides by zero and makes NaNs on its way out;
# np.isfinite and OutOfRange end it, so numpy's warnings would only repeat
# that. Each engine pass (``_run``, ``evaluate``) enters this once, not per step.
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


@np.errstate(**_QUIET)
def _run(cfg: TrainConfig, profile: DeviceProfile, process, keep_checkpoints: bool,
         tamper=None) -> tuple[RunOutput, tuple[np.ndarray, np.ndarray]]:
    """One pass of the engine; returns the record and the dataset it drew."""
    profile = replace(profile, b_tr=cfg.b_tr)
    rng = Rng(cfg.seed)
    X, y = make_dataset(cfg.dataset_size, cfg.dim, cfg.classes, rng)
    layers = cfg.layers
    params = [[rnd_array(p, cfg.b_r) for p in layer.init(rng)] for layer in layers]
    batch_indices = batches(cfg.dataset_size, cfg.batch_size, rng)

    slots = _slot_map(cfg)
    leaves: list[bytes] = []
    checkpoints: list[list[np.ndarray]] = []
    per_step: list[tuple[int, int]] = []

    t = 0
    try:
        for t, idx in zip(range(1, cfg.steps + 1), batch_indices):
            values, forward = _forward(layers, params, X[idx], profile, process, slots)

            loss = partial(_loss_forward, cfg.loss, values[-1], y[idx])
            loss_raw, grad_raw = loss(profile)
            if not np.isfinite(loss_raw):
                raise TrainingDiverged(t)

            grad, backward = process(grad_raw, slots["backward", len(layers)], lambda p: loss(p)[1])
            grads: list = [None] * len(layers)
            for i in range(len(layers) - 1, 0, -1):
                # bound to the incoming gradient, which the next line overwrites
                inputs = (values[i], values[i + 1], grad, params[i])
                grad, grads[i] = layers[i].backward(*inputs, profile)
                slot = slots.get(("backward", i))
                if slot is not None:
                    grad, n = process(grad, slot, partial(layers[i].input_grad, *inputs))
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


@np.errstate(**_QUIET)
def evaluate(cfg: TrainConfig, params, profile: DeviceProfile, X, y) -> tuple[float, float]:
    """Loss and accuracy of per-layer parameters over a dataset, rounded as
    the negative control rounds.

    The network runs a chunk of rows at a time, so memory does not grow
    with the dataset: ``batch_size`` rows, or more while the widest dense
    layer's product tensor stays within ``simnet``'s element budget. Each
    output row depends only on its own input row, and the loss runs once,
    over all the outputs, so its sum keeps its order.
    """
    profile = replace(profile, b_tr=cfg.b_tr)
    process, slots = _plain(cfg.b_r), _slot_map(cfg)
    widest = max([p.size for ps in params for p in ps], default=1)
    rows = max(cfg.batch_size, _ELEMENT_BUDGET // widest)
    outputs = []
    for lo in range(0, len(X), rows):
        values, _ = _forward(cfg.layers, params, X[lo : lo + rows], profile, process, slots)
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
          tamper=None) -> TrainOutput:
    """Run the trainer: produce the rounding log, checkpoints, and tree root.

    ``tamper(step, params)``, if given, runs after every step's update with
    the step number and the per-layer parameter lists, and may change them
    in place. It exists for dispute-game demonstrations and tests.

    A run that raises leaves no log behind: a partial log is well formed
    and would read as the log of a shorter run.
    """
    profile = get_profile(cfg.trainer_profile)
    writer = LogWriter(log_path, cfg.b_r)
    try:
        with writer:
            run, (X, y) = _run(cfg, profile, _trainer(writer, cfg), keep_checkpoints, tamper)
        try:
            final_loss, accuracy = evaluate(cfg, run.params, profile, X, y)
        except OutOfRange as e:
            raise TrainingDiverged(cfg.steps) from e
        if not np.isfinite(final_loss):
            raise TrainingDiverged(cfg.steps)
    except BaseException:
        writer.path.unlink(missing_ok=True)
        raise
    return TrainOutput(**vars(run), entries_logged=writer.entry_count,
                       final_loss=final_loss, train_accuracy=accuracy)


def audit(cfg: TrainConfig, auditor_profile: str, log_path) -> RunOutput:
    """Replay the run on the named profile, consuming the trainer's log.

    A log whose entry count is not the config's (``estimate_log_entries``)
    is refused before the first step, so the replay reads every entry.
    """
    profile = get_profile(auditor_profile)
    reader = LogReader(log_path)
    if reader.b_r != cfg.b_r:
        raise AuditFailure(f"log b_r {reader.b_r} does not match config b_r {cfg.b_r}")
    if reader.entry_count != estimate_log_entries(cfg).entries:
        raise AuditFailure("operation-count mismatch")
    try:
        run, _ = _run(cfg, profile, _auditor(reader, cfg.b_r), False)
    except TrainingDiverged as e:
        raise AuditFailure(str(e)) from e
    return run


def audit_without_corrections(cfg: TrainConfig, auditor_profile: str) -> RunOutput:
    """Replay with plain rounding and no log: the negative control."""
    try:
        run, _ = _run(cfg, get_profile(auditor_profile), _plain(cfg.b_r), False)
    except TrainingDiverged as e:
        raise AuditFailure(str(e)) from e
    return run


@dataclass(frozen=True)
class LogEstimate:
    entries: int
    payload_bytes: int
    file_bytes: int


def estimate_log_entries(cfg: TrainConfig) -> LogEstimate:
    """The log's entry count from the config alone (``log_slots`` per step),
    and the most bytes a log of that count takes: every entry directed."""
    entries = cfg.steps * sum(s.entries for s in cfg.log_slots())
    return LogEstimate(
        entries=entries,
        payload_bytes=roundlog.payload_bytes_for(entries),
        file_bytes=roundlog.file_bytes_for(entries),
    )


def search_tau(smallest: float, b_r: int) -> float:
    """The largest threshold below the smallest straddle distance, clipped
    to ``tau_bounds``.

    The code test is strict (``d > t``), so a straddle at distance ``d``
    is directed only under a tau below ``d``: the result is the double
    just below ``smallest``. With no straddle (``smallest`` is inf) it is
    the upper bound; when ``smallest`` is at or below the lower bound, it
    is the lower bound.
    """
    lower, upper = tau_bounds(b_r)
    return min(upper, max(lower, math.nextafter(smallest, 0.0)))


def threshold_search(cfg: TrainConfig) -> dict[str, float]:
    """The adaptive tau table for a run, searched on the run itself: per
    ``log_slots`` key, ``search_tau`` of the straddles each registered
    profile other than the trainer's (profiles are equal by order) finds
    against the trainer's, recomputing each stage on the trainer's inputs.
    At a straddle (the two nearest roundings differ and the raw values sit
    on opposite sides of them: what a code resyncs) the trainer's code is
    tested against ``|y1 - r1|`` over ``y1``'s exponent scale. Only the
    least per key is kept (inf if none: ``search_tau`` gives the upper
    bound), so memory does not grow with the run, and ``process`` counts
    nothing. A diverging run raises ``TrainingDiverged``.
    """
    b_r, trainer = cfg.b_r, get_profile(cfg.trainer_profile)
    others = [replace(p, b_tr=cfg.b_tr) for p in PROFILES.values() if p != trainer]
    smallest = {s.key: math.inf for s in cfg.log_slots()}

    def process(y1: np.ndarray, slot: Slot, stage) -> tuple[np.ndarray, int]:
        r1 = rnd_array(y1, b_r)
        for profile in others:
            y2 = stage(profile)
            r2 = rnd_array(y2, b_r)
            straddle = (r1 != r2) & (((y1 > r1) & (y2 < r2)) | ((y1 < r1) & (y2 > r2)))
            y, r = y1[straddle], r1[straddle]
            found = np.abs(y - r) / exponent_scale_array(y)
            smallest[slot.key] = min(smallest[slot.key], found.min(initial=math.inf))
        return r1, 0

    _run(cfg, trainer, process, False)
    return {key: search_tau(d, b_r) for key, d in smallest.items()}
