"""Operator entry points.

A run config is a JSON document carrying everything that affects
bit-exactness (dataset, architecture, hyperparameters, seed, rounding
amount, threshold policy), so a trainer can hand one file to an auditor
and both provably execute the same run; ``TrainConfig.from_dict`` maps it.
Command-line flags cover only operational choices: which profile
executes, where artifacts land, network addresses.

Exit codes: 0 success or verified, 1 dispute found, 2 usage error,
3 I/O error, 4 protocol error. A run that diverges (its loss turns
non-finite, or a value leaves the grid's range) ends ``train`` with exit 2
and one ``training diverged at step N`` line, and ``audit`` with exit 4.
A port outside 0-65535, a ``--timeout`` that is not a finite number above
0 and a ``--sessions`` below 1 are usage errors. A file that cannot be
written, ``dispute --transcript`` included, is an I/O error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import game, merkle, protocol, roundlog
from .protocol import TrainConfig
from .simnet import LAYER_KINDS, Rng, get_profile, layer_from_entry

EXIT_OK = 0
EXIT_DISPUTE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4

WEIGHTS_MAGIC = b"VTWT"


def load_config(path) -> TrainConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise click.ClickException(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise click.UsageError(f"config is not valid JSON: {e}") from e
    try:
        return TrainConfig.from_dict(doc)
    except (KeyError, TypeError, ValueError) as e:
        raise click.UsageError(f"bad config {path}: {e}") from e


def save_weights(path, tensors) -> None:
    """Final-weights binary: magic, version, tensor count, dims, FP32 LE data."""
    out = [WEIGHTS_MAGIC, bytes([1]), len(tensors).to_bytes(4, "little")]
    for t in tensors:
        arr = np.ascontiguousarray(t, dtype="<f4")
        out.append(bytes([arr.ndim]))
        for d in arr.shape:
            out.append(int(d).to_bytes(4, "little"))
        out.append(arr.tobytes(order="C"))
    Path(path).write_bytes(b"".join(out))


def load_weights(path) -> list[np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != WEIGHTS_MAGIC or raw[4] != 1:
        raise ValueError("not a weights file")
    count = int.from_bytes(raw[5:9], "little")
    pos = 9
    tensors = []
    for _ in range(count):
        ndim = raw[pos]
        pos += 1
        shape = []
        for _ in range(ndim):
            shape.append(int.from_bytes(raw[pos : pos + 4], "little"))
            pos += 4
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f4", count=n, offset=pos).reshape(shape)
        pos += 4 * n
        tensors.append(arr.copy())
    return tensors


def _artifact_paths(cfg: TrainConfig, out_dir: Path) -> dict[str, Path]:
    base = out_dir / cfg.name
    return {
        "log": base.with_suffix(".vtrl"),
        "tree": base.with_suffix(".vtmt"),
        "weights": base.with_suffix(".weights"),
        "report": Path(f"{base}.report.json"),
    }


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
    cfg = load_config(config_path)
    if profile:
        try:
            get_profile(profile)
        except ValueError as e:
            raise click.UsageError(str(e)) from e
        cfg = dataclasses.replace(cfg, trainer_profile=profile)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = _artifact_paths(cfg, out)
        start = time.perf_counter()
        result = protocol.train(cfg, paths["log"], keep_checkpoints=keep_checkpoints,
                                compress_log=compress_log)
        train_seconds = time.perf_counter() - start
        merkle.write_tree(result.tree, paths["tree"])
        save_weights(paths["weights"], [p for ps in result.params for p in ps])
        if keep_checkpoints and result.checkpoints is not None:
            for i, snap in enumerate(result.checkpoints):
                save_weights(out / f"{cfg.name}.ckpt{i:04d}.weights", snap)
        estimate = protocol.estimate_log_entries(cfg)
        report = {
            "config": cfg.name,
            "profile": cfg.trainer_profile,
            "b_r": cfg.b_r,
            "steps": cfg.steps,
            "root": result.root_hex,
            "final_weights_digest": result.tree.leaves[-1].hex(),
            "leaf_count": len(result.tree.leaves),
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
    except protocol.TrainingDiverged as e:
        click.echo(str(e), err=True)
        sys.exit(EXIT_USAGE)
    except OSError as e:
        click.echo(f"i/o error: {e}", err=True)
        sys.exit(EXIT_IO)
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
    if log_path is None and not no_corrections:
        raise click.UsageError("Missing option '--log' (required unless --no-corrections).")
    cfg = load_config(config_path)
    try:
        get_profile(profile)
    except ValueError as e:
        raise click.UsageError(str(e)) from e
    start = time.perf_counter()
    try:
        if no_corrections:
            result = protocol.audit_without_corrections(cfg, profile)
        else:
            result = protocol.audit(cfg, profile, log_path)
    except (protocol.AuditFailure, roundlog.LogFormatError) as e:
        click.echo(f"audit failed: {e}", err=True)
        sys.exit(EXIT_PROTOCOL)
    except OSError as e:
        click.echo(f"i/o error: {e}", err=True)
        sys.exit(EXIT_IO)
    match = result.root_hex == expect_root.lower()
    report = {
        "config": cfg.name,
        "profile": profile,
        "b_r": cfg.b_r,
        "root": result.root_hex,
        "expected_root": expect_root.lower(),
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
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{cfg.name}.audit.json").write_text(json.dumps(report, indent=2) + "\n")
        merkle.write_tree(result.tree, out / f"{cfg.name}.audit.vtmt")
    except OSError as e:
        click.echo(f"i/o error: {e}", err=True)
        sys.exit(EXIT_IO)
    click.echo(result.root_hex)
    if not match:
        click.echo("root mismatch", err=True)
        sys.exit(EXIT_DISPUTE)


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
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
    try:
        tree = merkle.read_tree(tree_path)
    except (OSError, ValueError) as e:
        click.echo(f"cannot load tree: {e}", err=True)
        sys.exit(EXIT_IO)
    addr = _parse_addr(listen_addr)
    try:
        listener = game.listen(addr)
        host, port = listener.getsockname()
        click.echo(f"listening on {host}:{port}", err=True)
        game.serve(tree, listener, max_sessions=sessions)
    except OSError as e:
        click.echo(f"socket error: {e}", err=True)
        sys.exit(EXIT_IO)


@main.command("dispute")
@click.argument("tree_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--connect", "connect_addr", required=True, help="Trainer's HOST:PORT.")
@click.option("--timeout", default=game.DEFAULT_TIMEOUT, type=float,
              help="Seconds to wait for each response.")
@click.option("--transcript", "transcript_path", default=None,
              type=click.Path(dir_okay=False), help="Write the message log as JSON lines.")
def cmd_dispute(tree_path, connect_addr, timeout, transcript_path):
    """Challenge a served tree with the local one; print the verdict report."""
    try:
        tree = merkle.read_tree(tree_path)
    except (OSError, ValueError) as e:
        click.echo(f"cannot load tree: {e}", err=True)
        sys.exit(EXIT_IO)
    addr = _parse_addr(connect_addr)
    if not 0 < timeout < math.inf:
        raise click.UsageError(f"--timeout must be finite and above 0, got {timeout!r}")
    try:
        report = game.challenge(tree, addr, timeout=timeout)
    except game.GameProtocolError as e:
        click.echo(f"protocol error: {e}", err=True)
        sys.exit(EXIT_PROTOCOL)
    if transcript_path:
        lines = [json.dumps(entry, sort_keys=True) for entry in report.transcript]
        try:
            Path(transcript_path).write_text("\n".join(lines) + "\n")
        except OSError as e:
            click.echo(f"i/o error: {e}", err=True)
            sys.exit(EXIT_IO)
    click.echo(json.dumps(report.to_json_dict(), indent=2))
    if report.outcome == game.TRAINING_VERIFIED:
        sys.exit(EXIT_OK)
    if report.outcome == game.DISPUTE_AT_LEAF:
        sys.exit(EXIT_DISPUTE)
    sys.exit(EXIT_PROTOCOL)


@main.command("threshold")
@click.option("--layer", "layer_kind", required=True, type=click.Choice(sorted(LAYER_KINDS)))
@click.option("--shape", default=None,
              help="INxOUT for dense layers, e.g. 64x64; the width of others (default 16).")
@click.option("--b-r", "b_r", default=32, type=int)
@click.option("--profiles", default="sequential,pairwise",
              help="Comma-separated pair of profiles to compare.")
@click.option("--b-tr", "b_tr", default=64, type=int,
              help="Accumulator width both profiles run at (default 64, exact FP64 adds).")
@click.option("--samples", default=1000, type=int)
@click.option("--seed", default=0, type=int)
def cmd_threshold(layer_kind, shape, b_r, profiles, b_tr, samples, seed):
    """Search the largest safe logging threshold for one layer."""
    try:
        widths = [int(v) for v in shape.lower().split("x")] if shape else []
        if len(widths) > 2:
            raise ValueError("want IN or INxOUT")
        layer = layer_from_entry({"kind": layer_kind, **dict(zip(("in", "out"), widths))})
    except ValueError as e:
        raise click.UsageError(f"bad --shape {shape!r}: {e}") from e
    names = profiles.split(",")
    if len(names) != 2:
        raise click.UsageError("--profiles needs exactly two names")
    try:
        pair = tuple(dataclasses.replace(get_profile(name), b_tr=b_tr) for name in names)
        tau = protocol.threshold_search(layer, b_r, pair, samples, Rng(seed))
    except ValueError as e:
        raise click.UsageError(str(e)) from e
    click.echo(repr(tau))


@main.command("inspect-log")
@click.argument("log_path", type=click.Path(exists=True, dir_okay=False))
def cmd_inspect_log(log_path):
    """Print a rounding log's header fields and direction histogram."""
    try:
        reader = roundlog.LogReader(log_path)
    except roundlog.LogFormatError as e:
        click.echo(f"bad log: {e}", err=True)
        sys.exit(EXIT_PROTOCOL)
    except OSError as e:
        click.echo(f"i/o error: {e}", err=True)
        sys.exit(EXIT_IO)
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
    cfg = load_config(config_path)
    est = protocol.estimate_log_entries(cfg)
    click.echo(f"steps: {cfg.steps}")
    click.echo(f"entries: {est.entries}")
    click.echo(f"payload bytes: {est.payload_bytes}")
    click.echo(f"file bytes: {est.file_bytes}")


if __name__ == "__main__":
    main()
