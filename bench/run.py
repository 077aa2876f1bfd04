"""vtrain benchmark: replay throughput on a wide and a narrow model, and
dispute latency, with an outside-in layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``vtrain`` is imported from its
``src/`` directory, and the run fails without printing a result if that
is missing. Scratch files go under ``.bench_run/`` in the checkout and
are removed at exit; a traced run leaves its spans in
``.bench_run/trace-<workload>.jsonl``.

A run repeats one *round* until ``--seconds`` is used up. A round is a
fixed, seed-determined unit of work that a user of vtrain performs:

1. ``vtrain train`` on the workload's config (trainer profile
   ``sequential``), in-process through ``vtrain.cli.main``;
2. ``vtrain audit`` of that log on the workload's auditor profile;
3. a closed loop of dispute-game sessions, one connection at a time,
   against a ``game.GameServer`` on a served tree. Each session does what
   ``vtrain dispute`` does: ``merkle.read_tree`` of its own ``.vtmt`` and
   ``game.challenge``. Three in four sessions hold a tree with one leaf
   changed at a seeded index (disputes); the rest hold the served tree
   (verified sessions).

Every workload runs all three steps so that every end-to-end metric is
measured on every workload. The served tree has 4096 leaves everywhere:
on a small tree a session is a few socket round trips whose latency
follows the host's load far more than the program's work. The workloads
differ in model shape and in sessions per round, which decide the layer
that carries the time. Why each workload was chosen, its work counts, the
layer-to-metric map and the traced breakdown of the commit that introduced
this benchmark are in ``bench/baseline.json``.

Every output is checked: train and audit must exit 0 and print the same
root, which must equal the root pinned in ``bench/pins.json`` for the
workload and seed when one is pinned; every dispute must name the planted
leaf and pass ``game.judge_check``; every verified session must end
``training_verified``. A failed check counts the operation in ``failed``
and makes ``correct`` false; nothing is retried.

Each operation is timed by the process's CPU time, after one untimed
warm-up round. With ``--trace 0`` the last stdout line holds the
end-to-end metrics.
With ``--trace 1`` rounds alternate untraced and traced; the traced ones
give the per-layer metrics (per round), and the difference between the
two kinds is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import vtrain  # noqa: E402

if not Path(vtrain.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"vtrain imported from {vtrain.__file__}, not from {SRC}")

from vtrain import cli, game, merkle, roundlog  # noqa: E402

from spans import SERVER_SPAN, Tracer  # noqa: E402

TAU = 2.9802322387695312e-08


def _config(name, size, dim, classes, layers, loss, epochs, batch, lr, interval):
    return {
        "name": name,
        "dataset": {"size": size, "dim": dim, "classes": classes},
        "model": {"layers": layers, "loss": loss},
        "epochs": epochs,
        "batch_size": batch,
        "learning_rate": lr,
        "checkpoint_interval": interval,
        "b_r": 32,
        "b_tr": 64,
        "b_m": 32,
        "tau": {"policy": "fixed", "value": TAU},
        "trainer_profile": "sequential",
    }


@dataclass(frozen=True)
class Workload:
    config: dict          # a shipped shape; the seed comes from --seed
    audit_profile: str
    sessions: int         # dispute-game sessions per round

    @property
    def samples(self) -> int:
        return self.config["dataset"]["size"] * self.config["epochs"]


WORKLOADS = {
    # configs/trend.json cut to 512 samples and one epoch: 16 steps, 16
    # checkpoints, so that a run holds enough train commands for a p90.
    "wide-replay": Workload(
        _config("wide", 512, 32, 4,
                [{"kind": "dense", "in": 32, "out": 256}, {"kind": "relu"},
                 {"kind": "dense", "in": 256, "out": 4}],
                "softmax_xent", 1, 32, 2.0, 1),
        audit_profile="pairwise", sessions=8),
    # configs/logreg.json as shipped: 64 steps, 8 checkpoints.
    "narrow-replay": Workload(
        _config("narrow", 4096, 64, 2,
                [{"kind": "dense", "in": 64, "out": 1}, {"kind": "sigmoid"}],
                "bce", 1, 64, 0.2, 8),
        audit_profile="chunked7", sessions=4),
    # configs/tiny.json as shipped for the replay step; sessions carry the time.
    "dispute": Workload(
        _config("tiny", 64, 8, 2,
                [{"kind": "dense", "in": 8, "out": 12}, {"kind": "relu"},
                 {"kind": "dense", "in": 12, "out": 2}],
                "softmax_xent", 2, 8, 0.4, 4),
        audit_profile="pairwise", sessions=64),
}

SERVED_LEAVES = 4096
SETUPS = 3             # set-ups per run; setup_s is their median
SESSION_TIMEOUT = 10.0  # seconds a challenger waits for each reply
LAYERS = ("cli", "protocol", "simnet", "fpround", "roundlog", "merkle", "game")


@dataclass
class Inputs:
    config: Path
    served: Path
    served_root: bytes
    sessions: list[tuple[Path, int | None]]  # challenger tree, planted leaf


def make_inputs(wl: Workload, seed: int, d: Path) -> Inputs:
    """Config JSON, leaf set and ``.vtmt`` files for one seed."""
    d.mkdir()
    config = d / "run.json"
    config.write_text(json.dumps(dict(wl.config, seed=seed), indent=2))
    rng = random.Random(seed)
    leaves = [hashlib.sha256(f"{seed}:{i}".encode()).digest() for i in range(SERVED_LEAVES)]
    served_tree = merkle.build(leaves)
    served = d / "served.vtmt"
    merkle.write_tree(served_tree, served)
    honest = d / "honest.vtmt"
    shutil.copyfile(served, honest)
    disputes = wl.sessions * 3 // 4
    kinds = [True] * disputes + [False] * (wl.sessions - disputes)
    rng.shuffle(kinds)
    sessions: list[tuple[Path, int | None]] = []
    for k, is_dispute in enumerate(kinds):
        if not is_dispute:
            sessions.append((honest, None))
            continue
        planted = rng.randrange(SERVED_LEAVES)
        changed = list(leaves)
        changed[planted] = hashlib.sha256(b"planted" + leaves[planted]).digest()
        path = d / f"challenger{k}.vtmt"
        merkle.write_tree(merkle.build(changed), path)
        sessions.append((path, planted))
    return Inputs(config, served, served_tree.root, sessions)


class Server:
    """``game.GameServer`` on a listener bound before its thread starts."""

    def __init__(self, tree_path: Path):
        self.server = game.GameServer(merkle.read_tree(tree_path))
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.address = self.listener.getsockname()
        self.stopping = False
        self.error: OSError | None = None
        self.thread = threading.Thread(target=self._serve, name="game-server", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        try:
            self.server.serve_forever(self.listener)
        except OSError as e:  # accept() fails once stop() shuts the listener
            if not self.stopping:
                self.error = e

    def stop(self) -> None:
        self.stopping = True
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(SESSION_TIMEOUT)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")


def set_up(wl: Workload, seed: int, work: Path) -> tuple[Inputs, Server, float]:
    """Set up ``SETUPS`` times; keep the last. Returns its inputs, server and
    the median set-up time.

    One set-up is what a user pays before the first operation: a fresh
    interpreter importing ``vtrain.cli``, input generation, and loading the
    served tree into a started server.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(SETUPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import vtrain.cli"], env=env,
                       check=True, timeout=60)
        inputs = make_inputs(wl, seed, work / f"setup{k}")
        server = Server(inputs.served)
        times.append(time.perf_counter() - start)
        if k < SETUPS - 1:
            server.stop()
    return inputs, server, statistics.median(times)


def cli_call(args: list[str]) -> tuple[int, str, str]:
    """Run ``vtrain ARGS`` in-process; exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="vtrain", standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), err.getvalue()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    train_s: list[float] = field(default_factory=list)
    audit_s: list[float] = field(default_factory=list)
    dispute_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    log_bytes: int = 0
    corrections: list[int] = field(default_factory=list)
    transcripts: list[list] = field(default_factory=list)  # disputes, traced rounds

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {op}: {reason}", file=sys.stderr)


class Runner:
    def __init__(self, name: str, wl: Workload, seed: int, inputs: Inputs,
                 server: Server, out: Path, tracer: Tracer):
        self.wl = wl
        self.inputs = inputs
        self.server = server
        self.out = out
        self.tracer = tracer
        pins = json.loads((BENCH / "pins.json").read_text())
        self.pinned = pins.get(name, {}).get(str(seed))
        self.log = out / f"{wl.config['name']}.vtrl"
        self.tally = Tally()

    def _op(self, traced: bool, name: str, fn, *args):
        """Run one operation; the CPU time it took and its result, or the
        exception it raised.

        The time is the process's CPU time, which covers the server thread
        as well as the client. Every operation is CPU-bound and the process
        has one CPU to itself, so on an idle host this is the wall time a
        user sees; unlike wall time it leaves out the spells in which the
        shared host runs something else on that CPU.
        """
        start = time.process_time()
        try:
            if traced:
                result = self.tracer.call(f"bench.{name}", fn, *args)
            else:
                result = fn(*args)
        except Exception as e:  # the operation failed; count it, never retry
            return time.process_time() - start, None, e
        return time.process_time() - start, result, None

    def replay(self, traced: bool, rid: str) -> None:
        t = self.tally
        cfg = str(self.inputs.config)
        t.attempted += 2
        self.tracer.run_id = f"{rid}.train"
        cpu, res, exc = self._op(traced, "train", cli_call,
                                 ["train", cfg, "--out", str(self.out)])
        if exc is not None or res[0] != 0:
            t.fail("train", repr(exc) if exc else f"exit {res[0]}: {res[2].strip()}")
            t.fail("audit", "no log to audit")
            return
        root = res[1].split()[-1]
        t.train_s.append(cpu)
        if self.pinned is not None and root != self.pinned:
            t.fail("train", f"root {root} differs from pinned {self.pinned}")
        t.log_bytes = self.log.stat().st_size

        self.tracer.run_id = f"{rid}.audit"
        cpu, res, exc = self._op(traced, "audit", cli_call, [
            "audit", cfg, "--profile", self.wl.audit_profile, "--log", str(self.log),
            "--expect-root", root, "--out", str(self.out)])
        if exc is not None or res[0] != 0:
            t.fail("audit", repr(exc) if exc else f"exit {res[0]}: {res[2].strip()}")
            return
        if res[1].split()[-1] != root:
            t.fail("audit", f"audit root {res[1].split()[-1]} differs from train root {root}")
            return
        t.audit_s.append(cpu)
        if traced:
            report = json.loads((self.out / f"{self.wl.config['name']}.audit.json").read_text())
            t.corrections.append(report["corrections_forward_total"]
                                 + report["corrections_backward_total"])

    def _session(self, tree_path: Path):
        tree = merkle.read_tree(tree_path)
        return tree, game.challenge(tree, self.server.address, timeout=SESSION_TIMEOUT)

    def sessions(self, traced: bool, rid: str) -> None:
        t = self.tally
        for k, (tree_path, planted) in enumerate(self.inputs.sessions):
            t.attempted += 1
            self.tracer.run_id = f"{rid}.session{k}"
            cpu, res, exc = self._op(traced, "session", self._session, tree_path)
            if exc is not None:
                t.fail("session", repr(exc))
                continue
            tree, report = res
            if planted is None:
                if report.outcome != game.TRAINING_VERIFIED:
                    t.fail("session", f"verified session ended {report.outcome}")
                    continue
                t.verify_s.append(cpu)
                continue
            if report.outcome != game.DISPUTE_AT_LEAF or report.leaf_index != planted:
                t.fail("session", f"planted leaf {planted}, got {report.outcome} "
                                  f"at {report.leaf_index}")
                continue
            if not game.judge_check(report, self.inputs.served_root, tree.root):
                t.fail("session", f"judge rejected the claim for leaf {planted}")
                continue
            t.dispute_s.append(cpu)
            if traced:
                t.transcripts.append(report.transcript)

    def round(self, traced: bool, rid: str) -> float:
        start = time.perf_counter()
        if traced:
            self.tracer.install()
        try:
            self.replay(traced, rid)
            self.sessions(traced, rid)
        finally:
            self.tracer.uninstall()
        return time.perf_counter() - start


def _pct(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(wl: Workload, t: Tally, setup_s: float) -> dict:
    # Timings are the 90th percentile of the operations' CPU times. The host
    # runs each CPU at one of two speeds about 2x apart, switching many
    # times a second, and the share of time at the fast one drifts over
    # minutes; means and medians follow that share, the slow tail does not.
    # In ten runs of 40 s per workload on a 2-vCPU VM, the spread (quartile
    # distance over median) across runs was 9-37% for per-run medians,
    # 10-21% for means and 7-12% for 90th percentiles. CPU time rather
    # than wall time keeps the spells in which the host takes the CPU
    # away out of that tail.
    return {
        "setup_s": (setup_s, "s"),
        "train_samples_per_s": (wl.samples / _pct(t.train_s, 90), "samples/s"),
        "audit_samples_per_s": (wl.samples / _pct(t.audit_s, 90), "samples/s"),
        "log_bytes_per_sample": (t.log_bytes / wl.samples, "B/sample"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "dispute_ms.p90": (1e3 * _pct(t.dispute_s, 90), "ms"),
        "verify_ms.p90": (1e3 * _pct(t.verify_s, 90), "ms"),
    }


def _wire_bytes(msg: dict) -> int:
    # game._send's framing: 4-byte length prefix plus compact sorted JSON
    return 4 + len(json.dumps(msg, sort_keys=True, separators=(",", ":")).encode())


def per_layer(runner: Runner, traced_walls: list[float], plain_walls: list[float]) -> dict:
    tracer, t = runner.tracer, runner.tally
    n = len(traced_walls)
    by_name, self_s = tracer.totals()
    c = tracer.counts
    entries_per_round = c["roundlog.entries"] / n
    dense_s = by_name["simnet.dense_forward"] + by_name["simnet.dense_backward"]
    hist = roundlog.LogReader(runner.log).histogram()
    ops_s = sum(v for k, v in by_name.items() if k.startswith("bench."))
    transcripts = t.transcripts
    # each traced round is compared with the untraced round just before it
    pairs = list(zip(plain_walls, traced_walls))

    def s(name):
        return (by_name[name] / n, "s")

    return {
        "simnet.dense_forward.s": s("simnet.dense_forward"),
        "simnet.dense_forward.calls": (c["simnet.dense_forward.calls"] / n, "count"),
        "simnet.dense_backward.s": s("simnet.dense_backward"),
        "simnet.loss.s": s("simnet.loss"),
        "simnet.madds": (c["simnet.madds"] / n, "madd"),
        "simnet.madds_per_s": (c["simnet.madds"] / dense_s, "madd/s"),
        "simnet.self_s": (self_s["simnet"] / n, "s"),
        "fpround.rnd_array.s": s("fpround.rnd_array"),
        "fpround.rnd_array.elements": (c["fpround.rnd_array.elements"] / n, "count"),
        "fpround.direction_array.s": s("fpround.direction_array"),
        "fpround.rev_array.s": s("fpround.rev_array"),
        "fpround.rnd_elements_per_entry": (
            c["fpround.rnd_array.elements"]
            / (c["roundlog.entries"] + c["roundlog.entries_read"]), "ratio"),
        "fpround.self_s": (self_s["fpround"] / n, "s"),
        "roundlog.write.s": s("roundlog.write"),
        "roundlog.read.s": s("roundlog.read"),
        "roundlog.entries": (entries_per_round, "count"),
        "roundlog.directed_frac": ((hist[0] + hist[2]) / sum(hist.values()), "ratio"),
        "roundlog.bytes_per_entry": (t.log_bytes / entries_per_round, "B/entry"),
        "roundlog.self_s": (self_s["roundlog"] / n, "s"),
        "protocol.train.s": s("protocol.train"),
        "protocol.audit.s": s("protocol.audit"),
        "protocol.self_s": (self_s["protocol"] / n, "s"),
        "protocol.corrections": (float(statistics.median(t.corrections)), "count"),
        "merkle.hash_weights.s": s("merkle.hash_weights"),
        "merkle.hash_weights.bytes": (c["merkle.hash_weights.bytes"] / n, "B"),
        "merkle.build.s": s("merkle.build"),
        "merkle.build.leaves": (c["merkle.build.leaves"] / n, "count"),
        "merkle.read_tree.s": s("merkle.read_tree"),
        "merkle.self_s": (self_s["merkle"] / n, "s"),
        "game.challenge.s": s("game.challenge"),
        "game.round_trips_per_dispute": (
            statistics.mean(sum(e["dir"] == "recv" for e in tr) for tr in transcripts),
            "count"),
        "game.wire_bytes_per_dispute": (
            statistics.mean(sum(_wire_bytes(e["msg"]) for e in tr) for tr in transcripts),
            "B/dispute"),
        "game.server.s": s(SERVER_SPAN),
        "game.self_s": (self_s["game"] / n, "s"),
        "cli.train.s": s("cli.train"),
        "cli.audit.s": s("cli.audit"),
        "cli.self_s": (self_s["cli"] / n, "s"),
        "trace.accounted_frac": (sum(self_s[layer] for layer in LAYERS) / ops_s, "ratio"),
        "trace.overhead_s": (statistics.median(tr - pl for pl, tr in pairs), "s"),
        "trace.overhead_frac": (statistics.median(tr / pl - 1 for pl, tr in pairs), "ratio"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = WORKLOADS[name]
    inputs, server, setup_s = set_up(wl, seed, work)
    out = work / "out"
    out.mkdir()
    tracer = Tracer()
    runner = Runner(name, wl, seed, inputs, server, out, tracer)
    traced_walls: list[float] = []
    plain_walls: list[float] = []
    try:
        # One untimed round first: its outputs are checked like any other,
        # but its times carry first-call costs the later rounds do not pay.
        runner.round(False, "warmup")
        for times in (runner.tally.train_s, runner.tally.audit_s,
                      runner.tally.dispute_s, runner.tally.verify_s):
            times.clear()
        origin = time.perf_counter()
        rounds = 0
        last = 0.0
        # a traced run needs one untraced and one traced round at least
        while rounds < (2 if trace else 1) or time.perf_counter() - origin + last <= seconds:
            traced = trace and rounds % 2 == 1
            last = runner.round(traced, f"r{rounds}")
            (traced_walls if traced else plain_walls).append(last)
            rounds += 1
    finally:
        server.stop()
    if server.error is not None:
        runner.tally.fail("server", repr(server.error))
    t = runner.tally
    # An operation that failed leaves no timing; metrics need at least one of each.
    measured = min(map(len, (t.train_s, t.audit_s, t.verify_s, t.dispute_s))) > 1
    if trace:
        tracer.write(ROOT / ".bench_run" / f"trace-{name}.jsonl", origin)
        metrics = per_layer(runner, traced_walls, plain_walls) if measured and t.corrections else {}
    else:
        metrics = end_to_end(wl, t, setup_s) if measured else {}
    return {
        "correct": t.failed == 0 and bool(metrics),
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # The client and server threads take turns (closed loop); on one CPU a
    # turn is a local context switch, where across CPUs it waits on a
    # cross-CPU wake-up whose latency swings with the host's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
