"""The benchmark still runs end to end against the package in this checkout.

Each workload's config document (with ``b_m`` and a tau policy object)
goes through ``vtrain train`` and ``vtrain audit``, so this also loads the
benchmark's own configs through ``TrainConfig.from_dict``.
"""

import json
import shutil
import subprocess
import sys

import pytest
from conftest import REPO_ROOT


@pytest.mark.parametrize("workload", ["wide-replay", "narrow-replay", "dispute"])
def test_traced_round_is_correct(tmp_path, workload):
    # a copy, so the run's .bench_run/ scratch lands outside the checkout
    skip = shutil.ignore_patterns("__pycache__", ".bench_run")
    for name in ("src", "bench"):
        shutil.copytree(REPO_ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path)
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    # checks the seed-0 pinned root, judge_check on every dispute and every span target
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0
