"""The benchmark's span tracer still wraps every function it names."""

import importlib.util

import numpy as np
from conftest import REPO_ROOT

from vtrain import simnet


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", REPO_ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    spans = load_spans()
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, name, _), original in zip(spans.TARGETS, originals):
            assert getattr(owner, attr) is not original, name
    finally:
        tracer.uninstall()
    for (owner, attr, name, _), original in zip(spans.TARGETS, originals):
        assert getattr(owner, attr) is original, name


def test_dense_stage_calls_the_wrapped_kernel():
    # bench/spans.py measures dense layers only through these two functions,
    # so a Dense layer that bypasses them would zero the per-layer metrics
    spans = load_spans()
    rng = np.random.default_rng(0)
    for batch, n_in, n_out in ((4, 3, 5), (32, 32, 256)):  # within and past the element budget
        layer = simnet.Dense(n_in, n_out)
        params = [rng.normal(size=(n_in, n_out)), np.zeros(n_out)]
        x, g = rng.normal(size=(batch, n_in)), rng.normal(size=(batch, n_out))
        tracer = spans.Tracer()
        tracer.install()
        try:
            y = layer.forward(x, params, simnet.SEQUENTIAL)
            layer.backward(x, y, g, params, simnet.SEQUENTIAL)
        finally:
            tracer.uninstall()
        assert [s[0] for s in tracer.spans] == ["simnet.dense_forward", "simnet.dense_backward"]
        assert tracer.counts["simnet.madds"] == 3 * batch * n_in * n_out
