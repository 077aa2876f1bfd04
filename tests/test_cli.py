"""Command-line interface: artifacts, exit codes, determinism."""

import dataclasses
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from vtrain import cli, game, merkle, protocol, simnet
from vtrain.cli import main

from conftest import CONFIG_DIR, REPO_ROOT

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


def _zero_hidden_width(doc):
    doc["model"]["layers"][0]["out"] = 0
    doc["model"]["layers"][2]["in"] = 0


def _no_features(doc):
    """dim and classes 0 with a lone ReLU: the walk finds no mismatched width."""
    doc["dataset"]["dim"] = 0
    doc["dataset"]["classes"] = 0
    doc["model"]["layers"] = [{"kind": "relu"}]


def _relu_in_and_out_differ(doc):
    doc["model"]["layers"][1]["in"] = 12
    doc["model"]["layers"][1]["out"] = 13


def _float_hidden_width(doc):
    doc["model"]["layers"][0]["out"] = 12.0
    doc["model"]["layers"][2]["in"] = 12.0


BAD_CONFIGS = {
    "batch-size-zero": _set(("batch_size",), 0),
    "dim-not-first-dense-in": _set(("dataset", "dim"), 7),
    "dense-in-not-incoming-width": _set(("model", "layers", 2, "in"), 11),
    "unknown-layer-kind": _set(("model", "layers", 1, "kind"), "tanh"),
    "no-loss": _set(("model", "loss"), None),
    "string-learning-rate": _set(("learning_rate",), "0.4"),
    "learning-rate-bool": _set(("learning_rate",), True),
    "learning-rate-nan": _set(("learning_rate",), float("nan")),
    "learning-rate-inf": _set(("learning_rate",), float("inf")),
    "final-width-not-classes": _set(("dataset", "classes"), 3),
    "bce-final-width-not-1": _set(("model", "loss"), "bce"),
    "adaptive-tau-one": _set(("tau",), {"policy": "adaptive", "table": {"dense:8x12": 1.0}}),
    "adaptive-tau-negative": _set(("tau",), {"policy": "adaptive",
                                             "table": {"dense:8x12": -1e-8}}),
    "adaptive-tau-nan": _set(("tau",), {"policy": "adaptive",
                                        "table": {"dense:8x12": float("nan")}}),
    "adaptive-table-misses-loss": _set(("tau",), {"policy": "adaptive", "table": {
        "dense:8x12": protocol.DEFAULT_TAU, "dense:12x2": protocol.DEFAULT_TAU}}),
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
    "relu-width-not-incoming": _set(("model", "layers", 1, "in"), 11),
    "relu-in-and-out-differ": _relu_in_and_out_differ,
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
        assert sum(report[k] for k in keys) == audited.total_count > 0


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
            trainer_path=game._path_from_wire(doc["trainer_path"]),
            auditor_path=game._path_from_wire(doc["auditor_path"]))
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
    ], ids=["serve-port", "sessions-negative", "sessions-zero", "dispute-port",
            "timeout-negative", "timeout-nan", "timeout-inf", "timeout-zero"])
    def test_usage_error(self, runner, tmp_path, args):
        four_leaf_tree(tmp_path / "t.vtmt")
        result = runner.invoke(main, args[:1] + [str(tmp_path / "t.vtmt")] + args[1:])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


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
        flipped = list(tree.leaves)
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


class TestMalformedTree:
    """A malformed ``.vtmt`` ends `serve` and `dispute` with exit 3 and one line."""

    @pytest.mark.parametrize("command", [
        ["serve", "--listen", "127.0.0.1:0", "--sessions", "1"],
        ["dispute", "--connect", "127.0.0.1:9", "--timeout", "1"],
    ], ids=["serve", "dispute"])
    @pytest.mark.parametrize("make", [zero_leaf_tree, trailing_bytes_tree],
                             ids=["zero-leaves", "trailing-bytes"])
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
        # answers the hello with ``announce`` and every node_request with
        # ``node_reply`` until the auditor hangs up
        listener = game.listen(("127.0.0.1", 0))

        def run():
            with listener:
                conn, _ = listener.accept()
                with conn:
                    try:
                        game._recv(conn)
                        game._send(conn, announce)
                        while game._recv(conn)["type"] == "node_request":
                            game._send(conn, node_reply)
                    except OSError:
                        pass

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return f"127.0.0.1:{listener.getsockname()[1]}", t

    @pytest.mark.parametrize("announce, node_reply", [
        ({"type": "root_announce", "root": "ab" * 32}, None),
        (dict(ANNOUNCE, leaf_count="x"), None),
        (ANNOUNCE, {"type": "node_response", "level": 1, "index": 0}),
        (ANNOUNCE, {"type": "node_response", "level": 1, "index": 0, "digest": "zz" * 32}),
        (ANNOUNCE, {"type": "node_response", "level": 1, "index": 0, "digest": "cd" * 32}),
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
    def test_bounds_respected(self, runner):
        result = runner.invoke(main, [
            "threshold", "--layer", "dense", "--shape", "16x16", "--b-r", "32",
            "--profiles", "sequential,pairwise", "--samples", "200", "--seed", "3",
        ])
        assert result.exit_code == 0, result.output
        tau = float(result.output.strip())
        assert 0.25 * 2.0**-23 <= tau <= 0.5 * 2.0**-23

    def test_deterministic(self, runner):
        args = ["threshold", "--layer", "relu", "--b-r", "29", "--samples", "50",
                "--seed", "11"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0, first.output
        assert first.output == second.output

    def test_accumulator_width(self, runner):
        # the library gives 5.96e-8 at 64 and 4.818e-8 at 50 for this layer
        args = ["threshold", "--layer", "dense", "--shape", "256x4", "--b-r", "32",
                "--samples", "1200", "--seed", "1"]
        default, at64, at50 = (runner.invoke(main, args + extra)
                               for extra in ([], ["--b-tr", "64"], ["--b-tr", "50"]))
        assert default.exit_code == at64.exit_code == at50.exit_code == 0, at50.output
        assert default.output == at64.output == "5.960464477539063e-08\n"
        pair = tuple(dataclasses.replace(simnet.get_profile(name), b_tr=50)
                     for name in ("sequential", "pairwise"))
        want = protocol.threshold_search(simnet.Dense(256, 4), 32, pair, 1200, simnet.Rng(1))
        assert float(at50.output) == want < float(at64.output)

    @pytest.mark.parametrize("b_tr", ["12", "65", "50.5"])
    def test_refused_width_is_usage_error(self, runner, b_tr):
        result = runner.invoke(main, ["threshold", "--layer", "relu", "--samples", "20",
                                      "--b-tr", b_tr])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)

    def test_dense_needs_shape(self, runner):
        result = runner.invoke(main, ["threshold", "--layer", "dense"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("layer,shape", [("relu", "abc"), ("dense", "0x4"),
                                             ("dense", "4x0"), ("sigmoid", "0")])
    def test_bad_shape_is_usage_error(self, runner, layer, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["threshold", "--layer", layer, "--shape", shape,
                                          "--samples", "20"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "bad --shape" in result.output


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


class TestKeepCheckpoints:
    def test_checkpoint_weight_files_written(self, runner, tmp_path):
        result = runner.invoke(main, [
            "train", TINY, "--out", str(tmp_path), "--keep-checkpoints",
        ])
        assert result.exit_code == 0, result.output
        tree = merkle.read_tree(tmp_path / "tiny.vtmt")
        files = sorted(tmp_path.glob("tiny.ckpt*.weights"))
        assert len(files) == len(tree.leaves)
        # each snapshot hashes to its leaf
        for ckpt, leaf in zip(files, tree.leaves):
            tensors = cli.load_weights(ckpt)
            assert merkle.hash_weights(tensors) == leaf


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
