"""Outside-in span tracer for the vtrain benchmark.

The tracer replaces public functions of the ``vtrain`` modules with
wrappers that record a span per call, so nothing inside the package
changes. A span is ``[name, start, end, parent, run_id]``; ``parent`` is
the enclosing span on the same thread (or ``None``) and ``run_id`` names
the benchmark operation that was running when the span started. Spans
stay in memory until ``write`` is called at the end of a run.

Span names are ``<layer>.<function>``; the layer is the ``vtrain``
module the function belongs to. A layer's self time is its spans'
durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from vtrain import cli, fpround, game, merkle, protocol, roundlog, simnet

# Spans recorded on the server thread run concurrently with the client's
# operations, so they are reported on their own and never counted towards
# the client's wall time.
SERVER_SPAN = "game.server"


def _dense_forward_counts(args):
    x, W = args[0], args[1]
    return {"simnet.dense_forward.calls": 1,
            "simnet.madds": x.shape[0] * W.shape[0] * W.shape[1]}


def _dense_backward_counts(args):
    grad_out, x = args[0], args[1]
    # grad_x and grad_W: one batch x in x out product each
    return {"simnet.madds": 2 * grad_out.shape[0] * x.shape[1] * grad_out.shape[1]}


def _rnd_counts(args):
    return {"fpround.rnd_array.elements": int(np.size(args[0]))}


def _hash_weights_counts(args):
    return {"merkle.hash_weights.bytes": 4 * sum(int(np.size(t)) for t in args[0])}


# (owner, attribute, span name, counter or None). ``protocol`` imports the
# fpround array functions and the loss functions by name, so those are
# wrapped where protocol looks them up as well as at their home module.
TARGETS = [
    (cli.main.commands["train"], "callback", "cli.train", None),
    (cli.main.commands["audit"], "callback", "cli.audit", None),
    (protocol, "train", "protocol.train", None),
    (protocol, "audit", "protocol.audit", None),
    (simnet, "dense_forward", "simnet.dense_forward", _dense_forward_counts),
    (simnet, "dense_backward", "simnet.dense_backward", _dense_backward_counts),
    (protocol, "softmax_xent_forward", "simnet.loss", None),
    (protocol, "bce_forward", "simnet.loss", None),
    (fpround, "rnd_array", "fpround.rnd_array", _rnd_counts),
    (protocol, "rnd_array", "fpround.rnd_array", _rnd_counts),
    (fpround, "direction_array", "fpround.direction_array", None),
    (protocol, "direction_array", "fpround.direction_array", None),
    (fpround, "rev_array", "fpround.rev_array", None),
    (protocol, "rev_array", "fpround.rev_array", None),
    (roundlog.LogWriter, "write_array", "roundlog.write",
     lambda a: {"roundlog.entries": int(np.size(a[1]))}),
    (roundlog.LogWriter, "close", "roundlog.write", None),
    (roundlog.LogReader, "__init__", "roundlog.read", None),
    (roundlog.LogReader, "read_array", "roundlog.read",
     lambda a: {"roundlog.entries_read": int(a[1])}),
    (merkle, "hash_weights", "merkle.hash_weights", _hash_weights_counts),
    (merkle, "build", "merkle.build", lambda a: {"merkle.build.leaves": len(a[0])}),
    (merkle, "read_tree", "merkle.read_tree", None),
    (game, "challenge", "game.challenge", None),
    (game.GameServer, "handle_session", SERVER_SPAN, None),
]


class Tracer:
    """Records spans and counts while installed; otherwise costs nothing."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
        self.spans.append(rec)
        stack.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter is not None:
                for key, n in counter(args).items():
                    tracer.counts[key] += n
            return tracer.call(name, original, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive seconds per span name and self seconds per layer.

        Self time is summed over client-thread spans only; the server
        span's total appears under its name.
        """
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[id(parent)] += end - start
        by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            name, start, end = rec[0], rec[1], rec[2]
            by_name[name] += end - start
            if name != SERVER_SPAN:
                self_by_layer[name.split(".", 1)[0]] += end - start - covered[id(rec)]
        return by_name, self_by_layer

    def write(self, path, origin: float) -> None:
        """One JSON array per line: index, name, start, end, parent index, run id.

        Times are seconds since ``origin``.
        """
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w") as f:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                row = [i, name, round(start - origin, 7), round(end - origin, 7),
                       None if parent is None else index[id(parent)], run_id]
                f.write(json.dumps(row, separators=(",", ":")) + "\n")
