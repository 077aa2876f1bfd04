"""The dispute game starts without numpy.

``vtrain serve``, ``vtrain dispute``, ``--help`` and the judge need only
``merkle``, ``game`` and the standard library, and the package root loads
its exports on first access. The fresh-process tests run ``vtrain`` with
numpy made unimportable, so a module-level numpy import anywhere on that
path fails them.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import vtrain
from vtrain import game, merkle

from conftest import REPO_ROOT
from harness import path_from_wire

# ``import numpy`` raises ImportError once its sys.modules entry is None
NO_NUMPY = "import sys; sys.modules['numpy'] = None; "
VTRAIN = NO_NUMPY + "from vtrain.cli import main; main(prog_name='vtrain')"

EXPORTS = [
    "DOWN", "IGNORE", "UP", "DeviceProfile", "PROFILES", "Rng", "get_profile",
    "TrainConfig", "RunOutput", "TrainOutput", "train", "audit",
    "audit_without_corrections", "estimate_log_entries", "threshold_search",
    "MerkleTree", "MerklePath", "build", "hash_weights", "VerdictReport",
    "challenge", "judge_check", "listen", "serve", "__version__",
]


def python(*args, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def finish(proc, timeout=60) -> tuple[int, str, str]:
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out, err


class TestPackageRoot:
    def test_exports_unchanged(self):
        assert sorted(vtrain.__all__) == sorted(EXPORTS)

    @pytest.mark.parametrize("name", [n for n in EXPORTS if n != "__version__"])
    def test_every_export_is_its_modules_object(self, name):
        value = getattr(vtrain, name)
        homes = [importlib.import_module(f"vtrain.{m}")
                 for m in ("fpround", "simnet", "protocol", "merkle", "game")]
        assert any(getattr(home, name, None) is value for home in homes), name

    def test_dir_lists_every_export(self):
        assert set(EXPORTS) <= set(dir(vtrain))

    def test_star_import(self):
        namespace = {}
        exec("from vtrain import *", namespace)
        assert set(EXPORTS) <= set(namespace)
        assert namespace["train"] is vtrain.train

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            vtrain.no_such_export
        assert not hasattr(vtrain, "cmd_train")


def test_import_loads_nothing_numeric():
    """``import vtrain.cli`` loads the dispute game's modules and no more;
    ``from vtrain import cli`` imports the submodule although no export names it."""
    code, out, err = finish(python("-c", (
        "import json, sys; from vtrain import cli; from vtrain import challenge; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('vtrain', 'numpy'))))")))
    assert code == 0, err
    assert json.loads(out) == ["vtrain", "vtrain.cli", "vtrain.game", "vtrain.merkle"]


def test_dispute_modules_import_without_numpy():
    code, out, err = finish(python("-c", NO_NUMPY + (
        "import vtrain.cli, vtrain.game, vtrain.merkle\n"
        "from vtrain import cli, judge_check, MerkleTree\n"
        "try:\n"
        "    import vtrain.protocol\n"
        "except ImportError:\n"
        "    print('engine needs numpy')\n")))
    assert code == 0, err
    # the engine does need numpy, so the block is in force
    assert out == "engine needs numpy\n"


def test_help_without_numpy():
    code, out, err = finish(python("-c", VTRAIN, "--help"))
    assert code == 0, err
    assert out.startswith("Usage: vtrain [OPTIONS] COMMAND [ARGS]...")
    for command in ("train", "audit", "serve", "dispute", "threshold", "estimate"):
        assert f"  {command} " in out, command


def test_serve_and_dispute_without_numpy(tmp_path):
    planted = 11
    leaves = [hashlib.sha256(f"cold-start-{i}".encode()).digest() for i in range(16)]
    auditor = merkle.build(leaves)
    leaves[planted] = hashlib.sha256(b"planted").digest()
    trainer = merkle.build(leaves)
    merkle.write_tree(trainer, tmp_path / "trainer.vtmt")
    merkle.write_tree(auditor, tmp_path / "auditor.vtmt")

    server = python("-c", VTRAIN, "serve", str(tmp_path / "trainer.vtmt"),
                    "--listen", "127.0.0.1:0", "--sessions", "1")
    try:
        line = server.stderr.readline()
        assert line.startswith("listening on 127.0.0.1:"), line + server.stderr.read()
        code, out, err = finish(python(
            "-c", VTRAIN, "dispute", str(tmp_path / "auditor.vtmt"),
            "--connect", f"127.0.0.1:{line.rsplit(':', 1)[1].strip()}", "--timeout", "10"))
        served, _, served_err = finish(server, timeout=10)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert served == 0, served_err
    assert code == 1, err
    doc = json.loads(out)
    assert doc["outcome"] == game.DISPUTE_AT_LEAF
    assert doc["leaf_index"] == planted
    report = game.VerdictReport(
        outcome=doc["outcome"], leaf_index=doc["leaf_index"],
        trainer_path=path_from_wire(doc["trainer_path"]),
        auditor_path=path_from_wire(doc["auditor_path"]))
    assert game.judge_check(report, trainer.root, auditor.root)
