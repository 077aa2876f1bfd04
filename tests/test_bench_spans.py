"""The benchmark's span tracer still wraps every function it names."""

import importlib.util

from conftest import REPO_ROOT


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
