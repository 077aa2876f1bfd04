"""Operator entry points.

A run config is a JSON document carrying everything that affects
bit-exactness (dataset, architecture, hyperparameters, seed, rounding
amount, threshold policy), so a trainer can hand one file to an auditor
and both provably execute the same run; ``TrainConfig.from_dict`` maps it.
Command-line flags cover only operational choices: which profile
executes, where artifacts land, network addresses.

Exit codes: 0 success or verified, 1 dispute found, 2 usage error,
3 I/O error, 4 protocol error. A run that diverges (its loss turns
non-finite, or a value leaves the grid's range) ends ``train`` and
``threshold`` with exit 2 and one ``training diverged at step N`` line,
and ``audit`` with exit 4.
A port outside 0-65535, a ``--timeout`` that is not a finite number above
0, a ``--sessions`` below 1 and an ``--expect-root`` that is not 64 hex
digits are usage errors, found before any file is read; so is a config that
is not UTF-8 JSON or is nested too deep to parse. A config that cannot be
read, or a file that cannot be written, ``dispute --transcript`` included,
is an I/O error.

Only the commands that compute load numpy and the replay engine
(``protocol``, ``simnet``, ``fpround``, ``roundlog``): ``train``,
``audit``, ``threshold``, ``estimate`` and ``inspect-log`` import them
inside the command. ``serve``, ``dispute`` and ``--help`` need no more
than ``merkle``, ``game`` and the standard library, so a challenger
starts in about half the time of a process that loads numpy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import game, merkle

if TYPE_CHECKING:  # for annotations; the commands that compute import them
    import numpy as np

    from .protocol import TrainConfig

EXIT_OK = 0
EXIT_DISPUTE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4

WEIGHTS_MAGIC = b"VTWT"


@contextlib.contextmanager
def _failing(errors, code: int, prefix: str):
    """Any of ``errors`` raised inside ends the command: one stderr line, exit ``code``."""
    try:
        yield
    except errors as e:
        click.echo(f"{prefix}{e}", err=True)
        sys.exit(code)


def load_config(path) -> TrainConfig:
    from .protocol import TrainConfig

    with _failing(OSError, EXIT_IO, "i/o error: "):
        raw = Path(path).read_bytes()
    # ValueError covers bad JSON, bad UTF-8 and an integer too long to convert
    try:
        doc = json.loads(raw.decode())
    except (ValueError, RecursionError) as e:
        raise click.UsageError(f"config is not valid JSON: {e}") from e
    try:
        return TrainConfig.from_dict(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise click.UsageError(f"bad config {path}: {e}") from e


def save_weights(path, tensors) -> None:
    """Final-weights binary: magic, version, tensor count, dims, FP32 LE data."""
    import numpy as np

    out = [WEIGHTS_MAGIC, bytes([1]), len(tensors).to_bytes(4, "little")]
    for t in tensors:
        arr = np.ascontiguousarray(t, dtype="<f4")
        out.append(bytes([arr.ndim]))
        for d in arr.shape:
            out.append(int(d).to_bytes(4, "little"))
        out.append(arr.tobytes(order="C"))
    Path(path).write_bytes(b"".join(out))


def load_weights(path) -> list[np.ndarray]:
    """Tensors of a ``save_weights`` file; ValueError unless the file is exactly one."""
    import numpy as np

    raw = memoryview(Path(path).read_bytes())
    if len(raw) < 9 or raw[:4] != WEIGHTS_MAGIC or raw[4] != 1:
        raise ValueError("not a weights file")
    pos = 9  # past magic, version and tensor count

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(raw):
            raise ValueError("weights file is truncated")
        pos += n
        return raw[pos - n : pos]

    tensors = []
    for _ in range(int.from_bytes(raw[5:9], "little")):
        shape = [int.from_bytes(take(4), "little") for _ in range(take(1)[0])]
        data = take(4 * math.prod(shape))
        tensors.append(np.frombuffer(data, dtype="<f4").reshape(shape).copy())
    if pos != len(raw):
        raise ValueError(f"weights file has {len(raw) - pos} bytes after its last tensor")
    return tensors


def _artifact_paths(cfg: TrainConfig, out_dir: Path) -> dict[str, Path]:
    """Each suffix follows the whole run name, dots and all."""
    suffixes = {"log": ".vtrl", "tree": ".vtmt", "weights": ".weights",
                "report": ".report.json"}
    return {key: out_dir / f"{cfg.name}{suffix}" for key, suffix in suffixes.items()}


def _check_profile(name: str) -> None:
    from .simnet import get_profile

    try:
        get_profile(name)
    except ValueError as e:
        raise click.UsageError(str(e)) from e


def _load_tree(path) -> merkle.MerkleTree:
    with _failing((OSError, ValueError), EXIT_IO, "cannot load tree: "):
        return merkle.read_tree(path)


@click.group()
def main() -> None:
    """Replayable reduced-precision training with auditable rounding logs."""


@main.command("train")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--profile", default=None, help="Execution profile (defaults to the config's).")
@click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False),
              help="Directory for artifacts.")
@click.option("--compress-log", is_flag=True, help="DEFLATE the log payload.")
@click.option("--keep-checkpoints", is_flag=True,
              help="Also write per-checkpoint weight files.")
def cmd_train(config_path, profile, out_dir, compress_log, keep_checkpoints):
    """Run training; write log, checkpoint tree, final weights, and report."""
    from . import protocol

    cfg = load_config(config_path)
    if profile:
        _check_profile(profile)
        cfg = dataclasses.replace(cfg, trainer_profile=profile)
    out = Path(out_dir)
    with (_failing(protocol.TrainingDiverged, EXIT_USAGE, ""),
          _failing(OSError, EXIT_IO, "i/o error: ")):
        out.mkdir(parents=True, exist_ok=True)
        paths = _artifact_paths(cfg, out)
        start = time.perf_counter()
        result = protocol.train(cfg, paths["log"], keep_checkpoints=keep_checkpoints,
                                compress_log=compress_log)
        train_seconds = time.perf_counter() - start
        merkle.write_tree(result.tree, paths["tree"])
        save_weights(paths["weights"], [p for ps in result.params for p in ps])
        if keep_checkpoints:
            for i, snap in enumerate(result.checkpoints):
                save_weights(out / f"{cfg.name}.ckpt{i:04d}.weights", snap)
        estimate = protocol.estimate_log_entries(cfg)
        report = {
            "config": cfg.name,
            "profile": cfg.trainer_profile,
            "b_r": cfg.b_r,
            "steps": cfg.steps,
            "root": result.root_hex,
            "final_weights_digest": merkle.node(
                result.tree, 0, result.tree.leaf_count - 1).hex(),
            "leaf_count": result.tree.leaf_count,
            "entries_logged": result.entries_logged,
            "log_file_bytes": paths["log"].stat().st_size,
            "estimated_entries": estimate.entries,
            "estimated_file_bytes": estimate.file_bytes,
            "final_loss": result.final_loss,
            "train_accuracy": result.train_accuracy,
            "train_seconds": train_seconds,
            "per_step": [
                {"step": i + 1, "forward_directed": f, "backward_directed": b}
                for i, (f, b) in enumerate(result.per_step)
            ],
        }
        paths["report"].write_text(json.dumps(report, indent=2) + "\n")
    click.echo(result.root_hex)


@main.command("audit")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--profile", required=True, help="Auditor execution profile.")
@click.option("--log", "log_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="Trainer's rounding log; required unless --no-corrections.")
@click.option("--expect-root", required=True, help="Trainer's announced root (hex).")
@click.option("--out", "out_dir", default=".", type=click.Path(file_okay=False))
@click.option("--no-corrections", is_flag=True,
              help="Replay with plain rounding instead of the log (negative control).")
def cmd_audit(config_path, profile, log_path, expect_root, out_dir, no_corrections):
    """Replay a run from its config and log; exit 0 iff the roots match.

    Writes NAME.audit.json and the replayed tree, for dispute, as NAME.audit.vtmt.
    The negative control (--no-corrections) reads no log and reports no log_bytes.
    """
    from . import protocol, roundlog

    if log_path is None and not no_corrections:
        raise click.UsageError("Missing option '--log' (required unless --no-corrections).")
    if not re.fullmatch(r"[0-9a-fA-F]{64}", expect_root):
        raise click.UsageError(f"--expect-root must be 64 hex digits, got {expect_root!r}")
    expect_root = expect_root.lower()
    cfg = load_config(config_path)
    _check_profile(profile)
    start = time.perf_counter()
    with (_failing((protocol.AuditFailure, roundlog.LogFormatError), EXIT_PROTOCOL,
                   "audit failed: "),
          _failing(OSError, EXIT_IO, "i/o error: ")):
        if no_corrections:
            result = protocol.audit_without_corrections(cfg, profile)
        else:
            result = protocol.audit(cfg, profile, log_path)
    match = result.root_hex == expect_root
    report = {
        "config": cfg.name,
        "profile": profile,
        "b_r": cfg.b_r,
        "root": result.root_hex,
        "expected_root": expect_root,
        "match": match,
        "corrections_forward_total": sum(f for f, _ in result.per_step),
        "corrections_backward_total": sum(b for _, b in result.per_step),
        "per_step": [
            {"step": i + 1, "forward": f, "backward": b}
            for i, (f, b) in enumerate(result.per_step)
        ],
    }
    if not no_corrections:
        report["log_bytes"] = Path(log_path).stat().st_size
    report["audit_seconds"] = time.perf_counter() - start
    out = Path(out_dir)
    with _failing(OSError, EXIT_IO, "i/o error: "):
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg.name}.audit.json").write_text(json.dumps(report, indent=2) + "\n")
        merkle.write_tree(result.tree, out / f"{cfg.name}.audit.vtmt")
    click.echo(result.root_hex)
    if not match:
        click.echo("root mismatch", err=True)
        sys.exit(EXIT_DISPUTE)


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not re.fullmatch("[0-9]{1,5}", port) or int(port) > 65535:
        raise click.UsageError(f"address must be HOST:PORT with a port in 0-65535, got {text!r}")
    return host, int(port)


@main.command("serve")
@click.argument("tree_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--listen", "listen_addr", required=True,
              help="HOST:PORT to bind (port 0 picks a free one).")
@click.option("--sessions", default=None, type=click.IntRange(min=1),
              help="Serve this many sessions then exit (default: forever).")
def cmd_serve(tree_path, listen_addr, sessions):
    """Serve a checkpoint tree to challengers.

    Once bound, writes "listening on HOST:PORT" to stderr; from then on
    clients can connect.
    """
    addr = _parse_addr(listen_addr)
    tree = _load_tree(tree_path)
    with _failing(OSError, EXIT_IO, "socket error: "):
        listener = game.listen(addr)
        host, port = listener.getsockname()
        click.echo(f"listening on {host}:{port}", err=True)
        game.serve(tree, listener, max_sessions=sessions)


@main.command("dispute")
@click.argument("tree_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--connect", "connect_addr", required=True, help="Trainer's HOST:PORT.")
@click.option("--timeout", default=game.DEFAULT_TIMEOUT, type=float,
              help="Seconds to wait for each response.")
@click.option("--transcript", "transcript_path", default=None,
              type=click.Path(dir_okay=False), help="Write the message log as JSON lines.")
def cmd_dispute(tree_path, connect_addr, timeout, transcript_path):
    """Challenge a served tree with the local one; print the verdict report."""
    addr = _parse_addr(connect_addr)
    if not 0 < timeout < math.inf:
        raise click.UsageError(f"--timeout must be finite and above 0, got {timeout!r}")
    tree = _load_tree(tree_path)
    with _failing(game.GameProtocolError, EXIT_PROTOCOL, "protocol error: "):
        report = game.challenge(tree, addr, timeout=timeout)
    if transcript_path:
        lines = [json.dumps(entry, sort_keys=True) for entry in report.transcript]
        with _failing(OSError, EXIT_IO, "i/o error: "):
            Path(transcript_path).write_text("\n".join(lines) + "\n")
    click.echo(json.dumps(report.to_json_dict(), indent=2))
    codes = {game.TRAINING_VERIFIED: EXIT_OK, game.DISPUTE_AT_LEAF: EXIT_DISPUTE}
    sys.exit(codes.get(report.outcome, EXIT_PROTOCOL))


@main.command("threshold")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def cmd_threshold(config_path):
    """Search an adaptive tau table on the run a config describes.

    Prints {"policy": "adaptive", "table": ...}, ready to paste as the
    config's "tau", with one entry per logged slot's key. A slot whose tau
    is the floor of the tau bounds gets one stderr line: a straddle there
    sits at or below the floor, so no tau in the bounds directs it.
    """
    from . import protocol
    from .fpround import tau_bounds

    cfg = load_config(config_path)
    with _failing(protocol.TrainingDiverged, EXIT_USAGE, ""):
        table = protocol.threshold_search(cfg)
    floor, _ = tau_bounds(cfg.b_r)
    for key, tau in table.items():
        if tau == floor:
            click.echo(f"slot {key}: smallest straddle at or below the tau floor {floor!r}",
                       err=True)
    click.echo(json.dumps({"policy": "adaptive", "table": table}, indent=2))


@main.command("inspect-log")
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
def cmd_inspect_log(log_path):
    """Print a rounding log's header fields and direction histogram."""
    from . import roundlog

    with (_failing(roundlog.LogFormatError, EXIT_PROTOCOL, "bad log: "),
          _failing(OSError, EXIT_IO, "i/o error: ")):
        reader = roundlog.LogReader(log_path)
    hist = reader.histogram()
    click.echo(f"b_r: {reader.b_r}")
    click.echo(f"flags: {reader.flags:#04x}")
    click.echo(f"entries: {reader.entry_count}")
    click.echo(f"down (0): {hist[0]}")
    click.echo(f"ignore (1): {hist[1]}")
    click.echo(f"up (2): {hist[2]}")


@main.command("estimate")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def cmd_estimate(config_path):
    """Print the log-entry count and file size a config will produce."""
    from . import protocol

    cfg = load_config(config_path)
    est = protocol.estimate_log_entries(cfg)
    click.echo(f"steps: {cfg.steps}")
    click.echo(f"entries: {est.entries}")
    click.echo(f"payload bytes: {est.payload_bytes}")
    click.echo(f"file bytes: {est.file_bytes}")


if __name__ == "__main__":
    main()
