"""Rewrite bench/pins.json with the train root of every workload for seeds 0-99.

    python3 bench/pin_roots.py

Run it only at a commit whose roots are known good: the benchmark fails
any replay whose root differs from the pinned one.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run

SEEDS = range(100)


def main() -> None:
    scratch = run.ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pins-", dir=scratch))
    pins: dict[str, dict[str, str]] = {}
    try:
        for name, wl in run.WORKLOADS.items():
            pins[name] = {}
            for seed in SEEDS:
                config = work / "run.json"
                config.write_text(json.dumps(dict(wl.config, seed=seed)))
                code, out, err = run.cli_call(["train", str(config), "--out", str(work)])
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: train exited {code}: {err}")
                pins[name][str(seed)] = out.split()[-1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
