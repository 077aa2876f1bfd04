"""Command-line interface: artifacts, exit codes, determinism."""

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from vtrain import cli, fpround, game, merkle, protocol, roundlog
from vtrain.cli import main

from conftest import CONFIG_DIR, REPO_ROOT
from harness import path_from_wire

SRC_DIR = REPO_ROOT / "src"

TINY = str(CONFIG_DIR / "tiny.json")


@pytest.fixture
def runner():
    return CliRunner()


def train_tiny(runner, out_dir, profile="sequential"):
    result = runner.invoke(main, ["train", TINY, "--profile", profile, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    return result.output.strip().splitlines()[-1]


class TestTrain:
    def test_produces_artifacts_and_prints_root(self, runner, tmp_path):
        root = train_tiny(runner, tmp_path)
        assert len(root) == 64 and root == root.lower()
        for suffix in (".vtrl", ".vtmt", ".weights", ".report.json"):
            assert (tmp_path / f"tiny{suffix}").exists()
        report = json.loads((tmp_path / "tiny.report.json").read_text())
        assert report["root"] == root
        assert report["entries_logged"] == report["estimated_entries"]
        assert report["log_file_bytes"] == report["estimated_file_bytes"]

    def test_missing_config_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["train", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_bad_profile_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["train", TINY, "--profile", "warp9", "--out", str(tmp_path)])
        assert result.exit_code == 2

    # each would parse as chunked:7 (int() takes them) under another name
    @pytest.mark.parametrize("name", ["chunked:\u0667", "chunked:1_0", "chunked: 7",
                                      "chunked:+7", "chunked:07"],
                             ids=["arabic-indic-digit", "underscore", "space", "plus",
                                  "leading-zero"])
    def test_chunk_size_spelled_one_way(self, runner, tmp_path, name):
        for args in (["train", TINY, "--profile", name],
                     ["audit", TINY, "--profile", name, "--no-corrections",
                      "--expect-root", "00" * 32]):
            result = runner.invoke(main, args + ["--out", str(tmp_path)])
            assert result.exit_code == 2, (args, result.output)
            assert "unknown device profile" in result.output
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_tiny_with(_set(("trainer_profile",), name))))
        result = runner.invoke(main, ["train", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "bad config" in result.output and "unknown device profile" in result.output
        assert not list(tmp_path.glob("*.vtrl"))

    def test_rerun_byte_identical(self, runner, tmp_path):
        train_tiny(runner, tmp_path / "a")
        train_tiny(runner, tmp_path / "b")
        for suffix in (".vtrl", ".vtmt", ".weights"):
            fa = (tmp_path / "a" / f"tiny{suffix}").read_bytes()
            fb = (tmp_path / "b" / f"tiny{suffix}").read_bytes()
            assert hashlib.sha256(fa).digest() == hashlib.sha256(fb).digest()

    def test_tree_sidecar_matches_root(self, runner, tmp_path):
        root = train_tiny(runner, tmp_path)
        tree = merkle.read_tree(tmp_path / "tiny.vtmt")
        assert tree.root_hex == root

    def test_builds_the_tree_once(self, runner, tmp_path, monkeypatch):
        built = []
        real = merkle.build

        def counting(leaves):
            built.append(len(leaves))
            return real(leaves)

        monkeypatch.setattr(merkle, "build", counting)
        train_tiny(runner, tmp_path)
        assert built == [4]  # 16 steps, a checkpoint every 4

    def test_dotted_run_names_keep_every_artifact_apart(self, runner, tmp_path):
        # Path.with_suffix would take ".v1" and ".v2" for suffixes: both logs in tiny.vtrl
        roots = {}
        for name, lr in (("tiny.v1", 0.1), ("tiny.v2", 0.2)):
            path = tmp_path / f"{name}.json"
            doc = _tiny_with(_set(("name",), name))
            doc["learning_rate"] = lr
            path.write_text(json.dumps(doc))
            result = runner.invoke(main, ["train", str(path), "--out", str(tmp_path)])
            assert result.exit_code == 0, result.output
            roots[name] = result.output.strip().splitlines()[-1]
        assert roots["tiny.v1"] != roots["tiny.v2"]
        for name, root in roots.items():
            for suffix in (".vtrl", ".vtmt", ".weights", ".report.json"):
                assert (tmp_path / f"{name}{suffix}").exists(), (name, suffix)
            assert json.loads((tmp_path / f"{name}.report.json").read_text())["root"] == root
            assert merkle.read_tree(tmp_path / f"{name}.vtmt").root_hex == root
            result = runner.invoke(main, [
                "audit", str(tmp_path / f"{name}.json"), "--profile", "pairwise",
                "--log", str(tmp_path / f"{name}.vtrl"), "--expect-root", root,
                "--out", str(tmp_path),
            ])
            assert result.exit_code == 0, result.output
            assert json.loads((tmp_path / f"{name}.audit.json").read_text())["match"] is True
            result = runner.invoke(main, ["inspect-log", str(tmp_path / f"{name}.vtrl")])
            assert result.exit_code == 0, result.output
        assert not list(tmp_path.glob("tiny.vtrl"))


class TestAudit:
    def test_honest_audit_exits_zero(self, runner, tmp_path):
        root = train_tiny(runner, tmp_path)
        for profile in ("sequential", "pairwise"):
            result = runner.invoke(main, [
                "audit", TINY, "--profile", profile,
                "--log", str(tmp_path / "tiny.vtrl"),
                "--expect-root", root, "--out", str(tmp_path),
            ])
            assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "tiny.audit.json").read_text())
        assert report["match"] is True
        assert "log_bytes" in report and "audit_seconds" in report

    def test_wrong_root_exits_one(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        result = runner.invoke(main, [
            "audit", TINY, "--profile", "sequential",
            "--log", str(tmp_path / "tiny.vtrl"),
            "--expect-root", "00" * 32, "--out", str(tmp_path),
        ])
        assert result.exit_code == 1

    def test_garbage_log_is_protocol_error(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        bad = tmp_path / "bad.vtrl"
        bad.write_bytes(b"VTRL" + bytes(11))
        result = runner.invoke(main, [
            "audit", TINY, "--profile", "sequential",
            "--log", str(bad), "--expect-root", "00" * 32, "--out", str(tmp_path),
        ])
        assert result.exit_code == 4

    @pytest.mark.parametrize("root", ["not-a-root", "00" * 31, "0g" * 32],
                             ids=["not-hex", "62-digits", "g-digit"])
    def test_malformed_root_is_usage_error(self, runner, tmp_path, root):
        # exit 1 after a whole replay would read as "dispute found"
        train_tiny(runner, tmp_path)
        result = runner.invoke(main, [
            "audit", TINY, "--profile", "sequential",
            "--log", str(tmp_path / "tiny.vtrl"), "--expect-root", root, "--out", str(tmp_path),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "--expect-root must be 64 hex digits" in result.output
        assert not (tmp_path / "tiny.audit.json").exists()


class TestNegativeControl:
    """``--no-corrections`` replays with plain rounding and reads no log."""

    def test_runs_without_a_log(self, runner, tmp_path):
        root = train_tiny(runner, tmp_path)
        out = tmp_path / "control"
        result = runner.invoke(main, ["audit", TINY, "--profile", "pairwise",
                                      "--no-corrections", "--expect-root", root,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "tiny.audit.json").read_text())
        assert report["match"] is True and "log_bytes" not in report

    def test_reports_no_log_bytes_for_a_log_it_does_not_read(self, runner, tmp_path):
        root = train_tiny(runner, tmp_path)
        result = runner.invoke(main, ["audit", TINY, "--profile", "pairwise",
                                      "--no-corrections", "--log", str(tmp_path / "tiny.vtrl"),
                                      "--expect-root", root, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "log_bytes" not in json.loads((tmp_path / "tiny.audit.json").read_text())

    def test_log_still_required_with_corrections(self, runner, tmp_path):
        result = runner.invoke(main, ["audit", TINY, "--profile", "pairwise",
                                      "--expect-root", "00" * 32, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "--log" in result.output and "Traceback" not in result.output
        assert not (tmp_path / "tiny.audit.json").exists()


class TestDamagedCompressedLog:
    @pytest.mark.parametrize("command", ["audit", "inspect-log"])
    @pytest.mark.parametrize("damage", ["truncated", "flipped"])
    def test_is_protocol_error(self, runner, tmp_path, damage, command):
        result = runner.invoke(main, ["train", TINY, "--out", str(tmp_path), "--compress-log"])
        assert result.exit_code == 0, result.output
        root = result.output.split()[-1]
        log = tmp_path / "tiny.vtrl"
        raw = bytearray(log.read_bytes())
        if damage == "truncated":
            del raw[-20:]
        else:
            raw[20] ^= 0xFF
        log.write_bytes(bytes(raw))
        if command == "audit":
            args = ["audit", TINY, "--profile", "pairwise", "--log", str(log),
                    "--expect-root", root, "--out", str(tmp_path)]
            prefix = "audit failed:"
        else:
            args = ["inspect-log", str(log)]
            prefix = "bad log:"
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert len([l for l in result.output.splitlines() if l.startswith(prefix)]) == 1


class TestLogTrailingBytes:
    @pytest.mark.parametrize("command", ["audit", "inspect-log"])
    @pytest.mark.parametrize("compress", [[], ["--compress-log"]], ids=["plain", "deflate"])
    def test_is_protocol_error(self, runner, tmp_path, compress, command):
        result = runner.invoke(main, ["train", TINY, "--out", str(tmp_path)] + compress)
        assert result.exit_code == 0, result.output
        root = result.output.split()[-1]
        log = tmp_path / "tiny.vtrl"
        log.write_bytes(log.read_bytes() + bytes(3))
        if command == "audit":
            args = ["audit", TINY, "--profile", "pairwise", "--log", str(log),
                    "--expect-root", root, "--out", str(tmp_path)]
            prefix = "audit failed:"
        else:
            args = ["inspect-log", str(log)]
            prefix = "bad log:"
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"{prefix} 3 bytes after the "
                                              + ("compressed payload" if compress
                                                 else "rounding log's payload")]

    @pytest.mark.parametrize("command", ["audit", "inspect-log"])
    def test_inflating_past_the_header_is_protocol_error(self, runner, tmp_path, command):
        # a header claiming 7 entries over a stream that inflates to 8 MiB
        log = tmp_path / "tiny.vtrl"
        header = (roundlog.MAGIC + bytes([roundlog.VERSION, 32, roundlog.FLAG_DEFLATE])
                  + (7).to_bytes(8, "little"))
        log.write_bytes(header + zlib.compress(bytes(8 << 20), 9))
        if command == "audit":
            args = ["audit", TINY, "--profile", "pairwise", "--log", str(log),
                    "--expect-root", "0" * 64, "--out", str(tmp_path)]
            prefix = "audit failed:"
        else:
            args = ["inspect-log", str(log)]
            prefix = "bad log:"
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert result.output.startswith(f"{prefix} bytes after the rounding log's payload")


class TestLogHeader:
    @pytest.mark.parametrize("command", ["audit", "inspect-log"])
    @pytest.mark.parametrize("offset, value, message", [
        (6, 0x06, "unknown log flags 0x06"),
        (5, 200, "log b_r 200 outside [10, 32]"),
    ], ids=["flags", "b_r"])
    def test_is_protocol_error(self, runner, tmp_path, command, offset, value, message):
        result = runner.invoke(main, ["train", TINY, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        root = result.output.split()[-1]
        log = tmp_path / "tiny.vtrl"
        raw = bytearray(log.read_bytes())
        raw[offset] = value
        log.write_bytes(bytes(raw))
        if command == "audit":
            args = ["audit", TINY, "--profile", "pairwise", "--log", str(log),
                    "--expect-root", root, "--out", str(tmp_path)]
            prefix = "audit failed:"
        else:
            args = ["inspect-log", str(log)]
            prefix = "bad log:"
        result = runner.invoke(main, args)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"{prefix} {message}"]


def _tiny_with(edit):
    doc = json.loads((CONFIG_DIR / "tiny.json").read_text())
    edit(doc)
    return doc


def _set(path, value):
    """An edit that sets ``doc[path[0]][path[1]]...`` to ``value``."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _tiny_table(key, tau):
    """An adaptive tau document naming every slot tiny logs, ``key`` at ``tau``."""
    table = dict.fromkeys(("dense:8x12", "dense:12x2", "loss:softmax_xent"), protocol.DEFAULT_TAU)
    return {"policy": "adaptive", "table": {**table, key: tau}}


def _zero_hidden_width(doc):
    doc["model"]["layers"][0]["out"] = 0
    doc["model"]["layers"][2]["in"] = 0


def _no_features(doc):
    """dim and classes 0 with a lone ReLU: the walk finds no mismatched width."""
    doc["dataset"]["dim"] = 0
    doc["dataset"]["classes"] = 0
    doc["model"]["layers"] = [{"kind": "relu"}]


def _relu_gives_in_and_out(doc):
    doc["model"]["layers"][1]["in"] = 12
    doc["model"]["layers"][1]["out"] = 13


def _sigmoid_gives_out(doc):
    """tiny with a sigmoid hidden layer, which loads without the width."""
    doc["model"]["layers"][1] = {"kind": "sigmoid", "out": 12}


def _float_hidden_width(doc):
    doc["model"]["layers"][0]["out"] = 12.0
    doc["model"]["layers"][2]["in"] = 12.0


BAD_CONFIGS = {
    "batch-size-zero": _set(("batch_size",), 0),
    "epochs-zero": _set(("epochs",), 0),
    "dim-not-first-dense-in": _set(("dataset", "dim"), 7),
    "dense-in-not-incoming-width": _set(("model", "layers", 2, "in"), 11),
    "unknown-layer-kind": _set(("model", "layers", 1, "kind"), "tanh"),
    "no-loss": _set(("model", "loss"), None),
    "string-learning-rate": _set(("learning_rate",), "0.4"),
    "learning-rate-bool": _set(("learning_rate",), True),
    "learning-rate-nan": _set(("learning_rate",), float("nan")),
    "learning-rate-inf": _set(("learning_rate",), float("inf")),
    # integers past float range, which float() cannot convert
    "learning-rate-past-float": _set(("learning_rate",), 10**400),
    "final-width-not-classes": _set(("dataset", "classes"), 3),
    "bce-final-width-not-1": _set(("model", "loss"), "bce"),
    "adaptive-tau-one": _set(("tau",), _tiny_table("dense:12x2", 1.0)),
    "adaptive-tau-negative": _set(("tau",), _tiny_table("dense:12x2", -1e-8)),
    "adaptive-tau-nan": _set(("tau",), _tiny_table("dense:12x2", float("nan"))),
    "adaptive-tau-past-float": _set(("tau",), _tiny_table("dense:12x2", 10**400)),
    "tau-past-float": _set(("tau",), {"policy": "fixed", "value": 10**400}),
    "tau-string": _set(("tau",), {"policy": "fixed", "value": "3e-8"}),
    "tau-bool": _set(("tau",), {"policy": "fixed", "value": False}),
    "adaptive-table-misses-loss": _set(("tau",), {"policy": "adaptive", "table": {
        "dense:8x12": protocol.DEFAULT_TAU, "dense:12x2": protocol.DEFAULT_TAU}}),
    # README documents the table as an object; a list of [key, value] pairs is not one
    "adaptive-table-of-pairs": _set(("tau",), {"policy": "adaptive", "table": [
        [key, protocol.DEFAULT_TAU] for key in ("dense:8x12", "dense:12x2", "loss:softmax_xent")]}),
    "zero-hidden-width": _zero_hidden_width,
    "no-features": _no_features,
    "float-dim": _set(("dataset", "dim"), 8.0),
    "float-size": _set(("dataset", "size"), 64.0),
    "float-classes": _set(("dataset", "classes"), 2.0),
    "float-seed": _set(("seed",), 2024.0),
    "float-batch-size": _set(("batch_size",), 8.0),
    "float-epochs": _set(("epochs",), 2.0),
    "float-checkpoint-interval": _set(("checkpoint_interval",), 4.0),
    "float-dense-in": _set(("model", "layers", 0, "in"), 8.0),
    "float-hidden-width": _float_hidden_width,
    "bool-epochs": _set(("epochs",), True),
    "unknown-tau-policy": _set(("tau",), {"policy": "bogus", "table": {
        "dense:8x12": protocol.DEFAULT_TAU, "dense:12x2": protocol.DEFAULT_TAU,
        "loss:softmax_xent": protocol.DEFAULT_TAU}}),
    "trainer-profile-int": _set(("trainer_profile",), 5),
    "name-int": _set(("name",), 5),
    "name-with-slash": _set(("name",), "../../x"),
    "b-m-16": _set(("b_m",), 16),
    # an elementwise layer keeps its input's width and takes none, right or wrong
    "relu-gives-in": _set(("model", "layers", 1, "in"), 12),
    "relu-gives-wrong-in": _set(("model", "layers", 1, "in"), 11),
    "relu-gives-in-and-out": _relu_gives_in_and_out,
    "sigmoid-gives-out": _sigmoid_gives_out,
    # a table names exactly the logged slots' keys
    "adaptive-table-extra-key": _set(("tau",), {"policy": "adaptive", "table": {
        "dense:8x12": protocol.DEFAULT_TAU, "dense:12x2": protocol.DEFAULT_TAU,
        "loss:softmax_xent": protocol.DEFAULT_TAU, "relu": protocol.DEFAULT_TAU}}),
    "adaptive-table-mistyped-key": _set(("tau",), {"policy": "adaptive", "table": {
        "dense:8x12": protocol.DEFAULT_TAU, "dense:12x3": protocol.DEFAULT_TAU,
        "loss:softmax_xent": protocol.DEFAULT_TAU}}),
    # 16 steps: a checkpoint every 5 leaves step 16 in no leaf
    "checkpoint-interval-not-dividing-steps": _set(("checkpoint_interval",), 5),
}


class TestBadConfig:
    """Configs that used to validate and then crash; each is a usage error now."""

    @pytest.mark.parametrize("command", ["train", "estimate"])
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_usage_error(self, runner, tmp_path, case, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_tiny_with(BAD_CONFIGS[case])))
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "train" else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len([l for l in result.output.splitlines() if "bad config" in l]) == 1

    @pytest.mark.parametrize("command", ["train", "estimate"])
    @pytest.mark.parametrize("doc", [[], "tiny", 3, None], ids=["array", "string", "number", "null"])
    def test_document_not_an_object(self, runner, tmp_path, doc, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "train" else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len([l for l in result.output.splitlines() if "bad config" in l]) == 1

    @pytest.mark.parametrize("command", ["train", "estimate"])
    @pytest.mark.parametrize("raw", [b'{"name": "\xff"}', b"[" * 200_000, b"1" * 5000],
                             ids=["not-utf8", "nested-too-deep", "integer-too-long"])
    def test_unparsable_is_usage_error(self, runner, tmp_path, raw, command):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        args = [command, str(path)] + (["--out", str(tmp_path)] if command == "train" else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len([l for l in result.output.splitlines()
                    if "config is not valid JSON" in l]) == 1

    @pytest.mark.parametrize("command", ["train", "estimate"])
    def test_unreadable_is_io_error(self, runner, tmp_path, monkeypatch, command):
        # exit 1 would read as "dispute found"; a mode bit does not stop root
        def denied(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "read_bytes", denied)
        args = [command, TINY] + (["--out", str(tmp_path)] if command == "train" else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"i/o error: [Errno 13] Permission denied: {TINY!r}"]


class TestDivergedRun:
    """A learning rate that takes the weights past the grid's range."""

    def _config(self, tmp_path):
        path = tmp_path / "diverging.json"
        path.write_text(json.dumps(_tiny_with(_set(("learning_rate",), 1e12))))
        return str(path)

    def test_train_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["train", self._config(tmp_path), "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines() == ["training diverged at step 4"]
        # a partial log would pass for the log of a shorter run
        assert not list(tmp_path.glob("*.vtrl"))

    @staticmethod
    def _one_step(tmp_path, learning_rate):
        """logreg cut to one step, whose update first diverges in the evaluation after it."""
        doc = json.loads((CONFIG_DIR / "logreg.json").read_text())
        doc["dataset"]["size"] = doc["batch_size"] = 64
        doc.update(epochs=1, checkpoint_interval=1, learning_rate=learning_rate)
        path = tmp_path / "one-step.json"
        path.write_text(json.dumps(doc))
        return str(path)

    # the run's overflows, divisions by zero and NaNs raise no numpy warnings
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("learning_rate", [1e6, 1e38], ids=["nan-loss", "past-the-grid"])
    def test_final_evaluation_is_checked(self, runner, tmp_path, learning_rate):
        # a NaN loss is no JSON number, and past the grid the rounding raises
        out = tmp_path / "out"
        result = runner.invoke(main, ["train", self._one_step(tmp_path, learning_rate),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["training diverged at step 1"]
        assert not list(out.iterdir())

    def test_stderr_is_the_one_line(self, tmp_path):
        # exp overflows, log divides by zero and the loss is NaN on the way to
        # the check; a child process shows everything numpy would print
        env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "vtrain.cli", "train", self._one_step(tmp_path, 1e6),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr == "training diverged at step 1\n"

    @pytest.mark.parametrize("mode", [[], ["--no-corrections"]], ids=["log", "no-corrections"])
    def test_audit_is_protocol_error(self, runner, tmp_path, mode):
        root = train_tiny(runner, tmp_path)
        result = runner.invoke(main, [
            "audit", self._config(tmp_path), "--profile", "pairwise",
            "--log", str(tmp_path / "tiny.vtrl"), "--expect-root", root,
            "--out", str(tmp_path)] + mode)
        assert result.exit_code == 4, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.output.splitlines() == ["audit failed: training diverged at step 4"]


class TestBenchReportContract:
    """``bench/run.py`` reads the two correction totals from ``.audit.json``."""

    def test_correction_totals_are_ints_that_sum_to_the_audit(self, runner, tmp_path):
        # tiny at b_tr = 41 makes reversed correct a few forward entries
        config = tmp_path / "tiny41.json"
        config.write_text(json.dumps(_tiny_with(_set(("b_tr",), 41))))
        result = runner.invoke(main, ["train", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        root = result.output.split()[-1]
        log = tmp_path / "tiny.vtrl"
        result = runner.invoke(main, ["audit", str(config), "--profile", "reversed",
                                      "--log", str(log), "--expect-root", root,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "tiny.audit.json").read_text())
        keys = ("corrections_forward_total", "corrections_backward_total")
        for key in keys:
            assert type(report[key]) is int, key
        audited = protocol.audit(cli.load_config(config), "reversed", log)
        assert sum(report[k] for k in keys) == sum(map(sum, audited.per_step)) > 0


def version_1_log(path):
    """A log in the version-1 layout: tiny's 7680 entries, ReLU slots included."""
    from vtrain.roundlog import LogWriter

    with LogWriter(path, 32) as w:
        w.write_array(np.ones(7680, dtype=np.uint8))
    raw = bytearray(path.read_bytes())
    raw[4] = 1
    path.write_bytes(bytes(raw))


class TestOldLogVersion:
    def test_audit_rejects_version_1(self, runner, tmp_path):
        root = train_tiny(runner, tmp_path)
        old = tmp_path / "v1.vtrl"
        version_1_log(old)
        result = runner.invoke(main, [
            "audit", TINY, "--profile", "pairwise",
            "--log", str(old), "--expect-root", root, "--out", str(tmp_path),
        ])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        failed = [line for line in result.output.splitlines() if line.startswith("audit failed:")]
        assert failed == ["audit failed: unsupported log version 1"]

    def test_inspect_log_rejects_version_1(self, runner, tmp_path):
        old = tmp_path / "v1.vtrl"
        version_1_log(old)
        result = runner.invoke(main, ["inspect-log", str(old)])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("bad log:")


def serve_process(tree_path):
    """``vtrain serve TREE`` for one session in a child process, and its port."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vtrain.cli", "serve", str(tree_path),
         "--listen", "127.0.0.1:0", "--sessions", "1"],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stderr.readline()
    if not line.startswith("listening on 127.0.0.1:"):
        stop(proc)
        raise AssertionError(line)
    return proc, int(line.rsplit(":", 1)[1])


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stderr.close()


class TestAuditTree:
    """`vtrain audit` writes the replayed tree, which `vtrain dispute` takes."""

    @pytest.mark.parametrize("mode", [[], ["--no-corrections"]], ids=["log", "no-corrections"])
    def test_written_beside_the_report(self, runner, tmp_path, mode):
        root = train_tiny(runner, tmp_path)
        result = runner.invoke(main, [
            "audit", TINY, "--profile", "pairwise", "--log", str(tmp_path / "tiny.vtrl"),
            "--expect-root", root, "--out", str(tmp_path)] + mode)
        assert result.exit_code == 0, result.output
        tree = merkle.read_tree(tmp_path / "tiny.audit.vtmt")
        assert tree.root_hex == result.output.split()[-1] == root

    def test_dispute_with_it_names_the_tampered_leaf(self, runner, tmp_path):
        cfg = cli.load_config(TINY)
        tampered_step = 6

        def bump(step, params):
            if step == tampered_step:
                params[0][0][0, 0] += 2.0**-8

        trained = protocol.train(cfg, tmp_path / "tiny.vtrl", tamper=bump)
        merkle.write_tree(trained.tree, tmp_path / "tiny.vtmt")
        result = runner.invoke(main, [
            "audit", TINY, "--profile", "pairwise", "--log", str(tmp_path / "tiny.vtrl"),
            "--expect-root", trained.root_hex, "--out", str(tmp_path)])
        assert result.exit_code == 1, result.output
        audited = merkle.read_tree(tmp_path / "tiny.audit.vtmt")
        assert audited.root != trained.root

        proc, port = serve_process(tmp_path / "tiny.vtmt")
        try:
            result = runner.invoke(main, [
                "dispute", str(tmp_path / "tiny.audit.vtmt"),
                "--connect", f"127.0.0.1:{port}", "--timeout", "10"])
            assert proc.wait(timeout=10) == 0
        finally:
            stop(proc)
        assert result.exit_code == 1, result.output
        doc = json.loads(result.output)
        # the first checkpoint at or after the tampered step
        assert doc["leaf_index"] == -(-tampered_step // cfg.checkpoint_interval) - 1
        report = game.VerdictReport(
            outcome=doc["outcome"], leaf_index=doc["leaf_index"],
            trainer_path=path_from_wire(doc["trainer_path"]),
            auditor_path=path_from_wire(doc["auditor_path"]))
        assert game.judge_check(report, trained.root, audited.root)


def four_leaf_tree(path):
    merkle.write_tree(merkle.build([hashlib.sha256(bytes([i])).digest() for i in range(4)]), path)


class TestBadArguments:
    """Out-of-range ports, timeouts and session counts are usage errors."""

    @pytest.mark.parametrize("args", [
        ["serve", "--listen", "127.0.0.1:99999"],
        ["serve", "--listen", "127.0.0.1:0", "--sessions", "-1"],
        ["serve", "--listen", "127.0.0.1:0", "--sessions", "0"],
        ["dispute", "--connect", "127.0.0.1:99999"],
        ["dispute", "--connect", "127.0.0.1:9", "--timeout", "-1"],
        ["dispute", "--connect", "127.0.0.1:9", "--timeout", "nan"],
        ["dispute", "--connect", "127.0.0.1:9", "--timeout", "inf"],
        ["dispute", "--connect", "127.0.0.1:9", "--timeout", "0"],
        ["serve", "--listen", "127.0.0.1:\u00b2"],
        ["serve", "--listen", "127.0.0.1:" + "1" * 5000],
        ["dispute", "--connect", "127.0.0.1:\u00b2"],
        ["dispute", "--connect", "127.0.0.1:" + "1" * 5000],
    ], ids=["serve-port", "sessions-negative", "sessions-zero", "dispute-port",
            "timeout-negative", "timeout-nan", "timeout-inf", "timeout-zero",
            "serve-port-superscript", "serve-port-5000-digits",
            "dispute-port-superscript", "dispute-port-5000-digits"])
    def test_usage_error(self, runner, tmp_path, args):
        four_leaf_tree(tmp_path / "t.vtmt")
        result = runner.invoke(main, args[:1] + [str(tmp_path / "t.vtmt")] + args[1:])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args", [
        ["serve", "--listen", "127.0.0.1:99999"],
        ["dispute", "--connect", "127.0.0.1:99999"],
        ["dispute", "--connect", "127.0.0.1:9", "--timeout", "nan"],
    ], ids=["serve-port", "dispute-port", "timeout-nan"])
    def test_checked_before_the_tree_is_read(self, runner, tmp_path, args):
        zero_leaf_tree(tmp_path / "t.vtmt")
        result = runner.invoke(main, args[:1] + [str(tmp_path / "t.vtmt")] + args[1:])
        assert result.exit_code == 2, result.output
        assert "cannot load tree" not in result.output


class TestServeDispute:
    def _serve_in_thread(self, tree_path, sessions=1):
        # bind here, so the listener is ready before any client connects,
        # then serve the sidecar from the CLI code path
        listener = game.listen(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        tree = merkle.read_tree(tree_path)
        t = threading.Thread(
            target=game.serve, args=(tree, listener),
            kwargs={"max_sessions": sessions}, daemon=True,
        )
        t.start()
        return f"127.0.0.1:{port}", t

    def test_verified_flow(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        addr, thread = self._serve_in_thread(tmp_path / "tiny.vtmt")
        result = runner.invoke(main, [
            "dispute", str(tmp_path / "tiny.vtmt"), "--connect", addr, "--timeout", "5",
        ])
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["outcome"] == "training_verified"

    def test_dispute_flow(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        tree = merkle.read_tree(tmp_path / "tiny.vtmt")
        flipped = [merkle.node(tree, 0, i) for i in range(tree.leaf_count)]
        flipped[1] = hashlib.sha256(b"tampered").digest()
        merkle.write_tree(merkle.build(flipped), tmp_path / "other.vtmt")
        addr, thread = self._serve_in_thread(tmp_path / "other.vtmt")
        result = runner.invoke(main, [
            "dispute", str(tmp_path / "tiny.vtmt"), "--connect", addr,
            "--timeout", "5", "--transcript", str(tmp_path / "tr.jsonl"),
        ])
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["outcome"] == "dispute_at_leaf"
        assert doc["leaf_index"] == 1
        lines = (tmp_path / "tr.jsonl").read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_unwritable_transcript_is_io_error(self, runner, tmp_path):
        # exit 1 would read as "dispute found"
        train_tiny(runner, tmp_path)
        addr, thread = self._serve_in_thread(tmp_path / "tiny.vtmt")
        result = runner.invoke(main, [
            "dispute", str(tmp_path / "tiny.vtmt"), "--connect", addr, "--timeout", "5",
            "--transcript", str(tmp_path / "missing" / "tr.jsonl"),
        ])
        thread.join(timeout=5)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert len(result.output.splitlines()) == 1, result.output
        assert result.output.startswith("i/o error: ")

    def test_timeout_flow(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        addr = f"127.0.0.1:{listener.getsockname()[1]}"
        try:
            result = runner.invoke(main, [
                "dispute", str(tmp_path / "tiny.vtmt"), "--connect", addr, "--timeout", "0.3",
            ])
        finally:
            listener.close()
        assert result.exit_code == 4
        assert json.loads(result.output)["outcome"] == "trainer_unresponsive"


def zero_leaf_tree(path):
    path.write_bytes(merkle.TREE_MAGIC + bytes([merkle.TREE_VERSION]) + bytes(8))


def trailing_bytes_tree(path):
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
    merkle.write_tree(merkle.build(leaves), path)
    path.write_bytes(path.read_bytes() + b"\0")


def next_version_tree(path):
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
    merkle.write_tree(merkle.build(leaves), path)
    raw = bytearray(path.read_bytes())
    raw[4] = merkle.TREE_VERSION + 1
    path.write_bytes(raw)


class TestMalformedTree:
    """A malformed ``.vtmt`` ends `serve` and `dispute` with exit 3 and one line."""

    @pytest.mark.parametrize("command", [
        ["serve", "--listen", "127.0.0.1:0", "--sessions", "1"],
        ["dispute", "--connect", "127.0.0.1:9", "--timeout", "1"],
    ], ids=["serve", "dispute"])
    @pytest.mark.parametrize("make", [zero_leaf_tree, trailing_bytes_tree, next_version_tree],
                             ids=["zero-leaves", "trailing-bytes", "next-version"])
    def test_io_error(self, runner, tmp_path, command, make):
        tree_path = tmp_path / "bad.vtmt"
        make(tree_path)
        result = runner.invoke(main, command[:1] + [str(tree_path)] + command[1:])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert len(result.output.splitlines()) == 1, result.output
        assert result.output.startswith("cannot load tree: ")


ANNOUNCE = {"type": "root_announce", "root": "ab" * 32, "leaf_count": 4}


class TestMalformedTrainer:
    """Malformed trainer replies end `dispute` with exit 4, never a traceback."""

    def _fake_trainer(self, announce, node_reply):
        # answers the hello with ``announce`` and every children_request
        # with ``node_reply`` until the auditor hangs up
        listener = game.listen(("127.0.0.1", 0))

        def run():
            with listener:
                conn, _ = listener.accept()
                with conn:
                    try:
                        game._recv(conn)
                        game._send(conn, announce)
                        while game._recv(conn)["type"] == "children_request":
                            game._send(conn, node_reply)
                    except OSError:
                        pass

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return f"127.0.0.1:{listener.getsockname()[1]}", t

    @pytest.mark.parametrize("announce, node_reply", [
        ({"type": "root_announce", "root": "ab" * 32}, None),
        (dict(ANNOUNCE, leaf_count="x"), None),
        (ANNOUNCE, {"type": "children_response", "level": 2, "index": 0, "left": "cd" * 32}),
        (ANNOUNCE, {"type": "children_response", "level": 2, "index": 0,
                    "left": "zz" * 32, "right": "cd" * 32}),
        (ANNOUNCE, {"type": "children_response", "level": 2, "index": 0,
                    "left": "cd" * 32, "right": "cd" * 32}),
    ], ids=["no-leaf-count", "leaf-count-not-int", "no-digest", "digest-not-hex",
            "nodes-miss-root"])
    def test_protocol_error(self, runner, tmp_path, announce, node_reply):
        tree_path = tmp_path / "local.vtmt"
        leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
        merkle.write_tree(merkle.build(leaves), tree_path)
        addr, thread = self._fake_trainer(announce, node_reply)
        result = runner.invoke(main, [
            "dispute", str(tree_path), "--connect", addr, "--timeout", "5",
        ])
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result.exit_code == 4, result.output
        assert result.output.count("protocol error:") == 1, result.output
        assert "Traceback" not in result.output


class TestThreshold:
    """``vtrain threshold CONFIG`` searches the tau table on the run itself."""

    @staticmethod
    def _config(tmp_path, name="tiny", edit=None):
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        if edit is not None:
            edit(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path), doc

    def test_bounds_respected(self, runner, tmp_path):
        config, doc = self._config(tmp_path)
        result = runner.invoke(main, ["threshold", config])
        assert result.exit_code == 0, result.output
        printed = json.loads(result.stdout)
        assert printed["policy"] == "adaptive"
        cfg = cli.load_config(config)
        lo, hi = fpround.tau_bounds(cfg.b_r)
        assert list(printed["table"]) == list(dict.fromkeys(s.key for s in cfg.log_slots()))
        assert all(lo <= tau <= hi for tau in printed["table"].values())
        # ready to paste: the config takes it as its tau unchanged
        doc["tau"] = printed
        assert protocol.TrainConfig.from_dict(doc).tau == printed["table"]

    def test_deterministic(self, runner):
        first = runner.invoke(main, ["threshold", TINY])
        second = runner.invoke(main, ["threshold", TINY])
        assert first.exit_code == second.exit_code == 0, first.output
        assert first.output == second.output

    def test_accumulator_width(self, runner, tmp_path):
        """The search runs at the config's b_tr: ``logreg``'s dense output
        straddles at 44 and nowhere at 64, where every tau is the upper bound."""
        hi = fpround.tau_bounds(32)[1]
        tables = {}
        for b_tr in (44, 64):
            config, _ = self._config(tmp_path, "logreg", _set(("b_tr",), b_tr))
            result = runner.invoke(main, ["threshold", config])
            assert result.exit_code == 0, result.output
            assert result.stderr == ""
            tables[b_tr] = json.loads(result.stdout)["table"]
            assert tables[b_tr] == protocol.threshold_search(cli.load_config(config))
        assert set(tables[64].values()) == {hi}
        assert tables[44]["dense:64x1"] < tables[44]["sigmoid"] == tables[44]["loss:bce"] == hi

    def test_clipped_slot_is_named(self, runner, tmp_path):
        # tiny at b_tr = 42: dense:8x12 straddles at or below the floor
        config, _ = self._config(tmp_path, edit=_set(("b_tr",), 42))
        result = runner.invoke(main, ["threshold", config])
        assert result.exit_code == 0, result.output
        table = json.loads(result.stdout)["table"]
        floor = fpround.tau_bounds(32)[0]
        assert [key for key, tau in table.items() if tau == floor] == ["dense:8x12"]
        assert result.stderr.splitlines() == [
            f"slot dense:8x12: smallest straddle at or below the tau floor {floor!r}"]

    def test_diverging_run_is_usage_error(self, runner, tmp_path):
        config, _ = self._config(tmp_path, edit=_set(("learning_rate",), 1e11))
        result = runner.invoke(main, ["threshold", config])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("training diverged at step ")

    def test_help_lists_only_help(self, runner):
        result = runner.invoke(main, ["threshold", "--help"])
        assert result.exit_code == 0, result.output
        options = result.output.split("Options:")[1].split()
        assert [word for word in options if word.startswith("-")] == ["--help"]

    @pytest.mark.parametrize("b_tr", ["12", "65", "50.5"])
    def test_refused_width_is_usage_error(self, runner, tmp_path, b_tr):
        config, _ = self._config(tmp_path, edit=_set(("b_tr",), json.loads(b_tr)))
        result = runner.invoke(main, ["threshold", config])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)

    def test_dense_needs_shape(self, runner, tmp_path):
        config, _ = self._config(tmp_path, edit=_set(("model", "layers", 0), {"kind": "dense"}))
        result = runner.invoke(main, ["threshold", config])
        assert result.exit_code == 2, result.output
        assert "bad config" in result.output

    @pytest.mark.parametrize("layer,shape", [("relu", "abc"), ("dense", "0x4"),
                                             ("dense", "4x0"), ("sigmoid", "0")])
    def test_bad_shape_is_usage_error(self, runner, tmp_path, layer, shape):
        """A layer entry whose widths are not counts of at least 1."""
        widths = [int(w) if w.isdigit() else w for w in shape.split("x")]
        entry = {"kind": layer, **dict(zip(("in", "out"), widths))}
        stage = 0 if layer == "dense" else 1
        config, _ = self._config(tmp_path, edit=_set(("model", "layers", stage), entry))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["threshold", config])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "bad config" in result.output


class TestInspectEstimate:
    def test_inspect_histogram_sums_to_entries(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        result = runner.invoke(main, ["inspect-log", str(tmp_path / "tiny.vtrl")])
        assert result.exit_code == 0, result.output
        fields = dict(
            line.split(": ") for line in result.output.strip().splitlines()
        )
        total = int(fields["down (0)"]) + int(fields["ignore (1)"]) + int(fields["up (2)"])
        assert total == int(fields["entries"])

    def test_inspect_rejects_garbage(self, runner, tmp_path):
        bad = tmp_path / "junk.vtrl"
        bad.write_bytes(b"not a log at all")
        result = runner.invoke(main, ["inspect-log", str(bad)])
        assert result.exit_code == 4

    def test_inspect_empty_log(self, runner, tmp_path):
        from vtrain.roundlog import LogWriter

        path = tmp_path / "empty.vtrl"
        LogWriter(path, 32).close()
        result = runner.invoke(main, ["inspect-log", str(path)])
        assert result.exit_code == 0
        assert "entries: 0" in result.output

    def test_estimate_matches_file(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        result = runner.invoke(main, ["estimate", TINY])
        assert result.exit_code == 0
        fields = dict(line.split(": ") for line in result.output.strip().splitlines())
        assert int(fields["file bytes"]) == (tmp_path / "tiny.vtrl").stat().st_size


class TestWeightsFile:
    def test_roundtrip(self, tmp_path):
        tensors = [np.arange(6, dtype=np.float32).reshape(2, 3), np.ones(4, np.float32)]
        cli.save_weights(tmp_path / "w.weights", tensors)
        back = cli.load_weights(tmp_path / "w.weights")
        assert len(back) == 2
        assert np.array_equal(back[0], tensors[0])
        assert np.array_equal(back[1], tensors[1])

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.weights").write_bytes(b"XXXX\x01")
        with pytest.raises(ValueError):
            cli.load_weights(tmp_path / "bad.weights")

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "w.weights"
        cli.save_weights(path, [np.ones((2, 3), np.float32)])
        path.write_bytes(path.read_bytes() + b"\0\0")
        with pytest.raises(ValueError, match="2 bytes after its last tensor"):
            cli.load_weights(path)

    def test_every_cut_is_refused(self, tmp_path):
        path = tmp_path / "w.weights"
        cli.save_weights(path, [np.arange(6, dtype=np.float32).reshape(2, 3)])
        whole = path.read_bytes()
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            # the 9-byte header is magic, version and tensor count
            with pytest.raises(ValueError, match="truncated" if cut >= 9 else "not a weights"):
                cli.load_weights(path)


class TestKeepCheckpoints:
    def test_checkpoint_weight_files_written(self, runner, tmp_path):
        result = runner.invoke(main, [
            "train", TINY, "--out", str(tmp_path), "--keep-checkpoints",
        ])
        assert result.exit_code == 0, result.output
        tree = merkle.read_tree(tmp_path / "tiny.vtmt")
        files = sorted(tmp_path.glob("tiny.ckpt*.weights"))
        assert len(files) == tree.leaf_count
        # each snapshot hashes to its leaf
        for i, ckpt in enumerate(files):
            tensors = cli.load_weights(ckpt)
            assert merkle.hash_weights(tensors) == merkle.node(tree, 0, i)


class TestServeCommand:
    def test_serve_command_answers_one_session(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        proc, port = serve_process(tmp_path / "tiny.vtmt")
        try:
            tree = merkle.read_tree(tmp_path / "tiny.vtmt")
            report = game.challenge(tree, ("127.0.0.1", port), timeout=10)
            assert proc.wait(timeout=10) == 0
        finally:
            stop(proc)
        assert report.outcome == game.TRAINING_VERIFIED

    def test_bind_failure_is_io_error(self, runner, tmp_path):
        train_tiny(runner, tmp_path)
        with game.listen(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            result = runner.invoke(main, [
                "serve", str(tmp_path / "tiny.vtmt"), "--listen", f"127.0.0.1:{port}",
            ])
        assert result.exit_code == 3
        assert "socket error" in result.output
