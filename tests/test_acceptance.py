"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Expensive train/audit artifacts are shared through the session-scoped
run_cache fixture so criteria can reuse each other's runs.
"""

import json
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from vtrain import fpround as fp
from vtrain import game, merkle, protocol as pr
from vtrain import simnet as sn
from vtrain.cli import main as cli_main
from vtrain.roundlog import HEADER_LEN, LogReader, LogWriter
from vtrain.simnet import Rng, get_profile

from conftest import CONFIG_DIR, record_criterion
from harness import find_corruptible_entry

PROFILE_NAMES = ("sequential", "reversed", "pairwise", "chunked7")
SHIPPED = ("mlp", "logreg", "trend", "divergence", "tiny")


def get_train(cache, shipped_config, name, profile=None, b_r=None,
              keep_checkpoints=False):
    """Train a shipped config once per (name, profile, b_r) and cache it."""
    cfg = shipped_config(name)
    if profile is not None:
        cfg = replace(cfg, trainer_profile=profile)
    if b_r is not None:
        cfg = replace(cfg, b_r=b_r)
    key = ("train", name, cfg.trainer_profile, cfg.b_r, keep_checkpoints)
    if key not in cache["results"]:
        log = cache["dir"] / f"{name}-{cfg.trainer_profile}-{cfg.b_r}.vtrl"
        cache["results"][key] = (cfg, log, pr.train(cfg, log, keep_checkpoints=keep_checkpoints))
    return cache["results"][key]


def test_criterion_1_cross_profile_replication(run_cache, shipped_config):
    """Every ordered (trainer, auditor) profile pair replays bit-exactly."""
    start = time.perf_counter()
    ok = True
    for trainer_profile in PROFILE_NAMES:
        cfg, log, out = get_train(run_cache, shipped_config, "mlp", profile=trainer_profile)
        for auditor_profile in PROFILE_NAMES:
            if auditor_profile == trainer_profile:
                continue
            audit = pr.audit(cfg, auditor_profile, log)
            ok = ok and audit.root == out.root and audit.final_digest == out.final_digest
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    record_criterion(1, "cross-profile bit-exact replication (12 ordered pairs)", ok)
    assert ok, f"replication failed or too slow ({elapsed:.1f}s)"


def test_criterion_2_negative_control(run_cache, shipped_config):
    """Rounding without replay corrections must diverge on a shipped config,
    while the honest replay with the log still matches there."""
    diverged_on = None
    evidence_ok = False
    honest_ok = False
    for name in ("divergence", "trend", "mlp", "logreg", "tiny"):
        cfg, log, out = get_train(run_cache, shipped_config, name, keep_checkpoints=True)
        for auditor_profile in PROFILE_NAMES:
            if auditor_profile == cfg.trainer_profile:
                continue
            plain = pr.audit_without_corrections(cfg, auditor_profile, keep_checkpoints=True)
            if plain.root != out.root:
                diverged_on = (name, auditor_profile)
                first = merkle.first_divergence(out.tree, plain.tree)
                series = [
                    pr.weight_l2_distance(a, b)
                    for a, b in zip(out.checkpoints, plain.checkpoints)
                ]
                evidence_ok = (
                    first is not None
                    and all(v == 0.0 for v in series[:first])
                    and all(v != 0.0 for v in series[first:])
                )
                # a device model so noisy that honest audits fail too would
                # diverge here for the wrong reason
                honest = pr.audit(cfg, auditor_profile, log)
                honest_ok = honest.root == out.root and honest.total_count > 0
                break
        if diverged_on:
            break
    ok = diverged_on is not None and evidence_ok and honest_ok
    record_criterion(
        2,
        "negative control diverges without corrections"
        + (f" (config {diverged_on[0]!r} vs {diverged_on[1]})" if diverged_on
           else " (no shipped config diverged)"),
        ok,
    )
    assert diverged_on is not None, "no shipped config diverged under rounding-only replay"
    assert evidence_ok, f"weight distance does not track the first divergence on {diverged_on}"
    assert honest_ok, f"honest audit with the log did not match with corrections on {diverged_on}"


def test_criterion_3_correction_sparsity_trend(run_cache, shipped_config):
    """Corrections shrink with coarser grids and vanish at b_r = 26."""
    counts = {}
    for b_r in (26, 29, 32):
        cfg, log, out = get_train(run_cache, shipped_config, "trend", b_r=b_r)
        audit = pr.audit(cfg, "pairwise", log)
        assert audit.root == out.root, f"honest audit failed at b_r={b_r}"
        counts[b_r] = audit.total_count
    small_zero = True
    for name in ("mlp", "logreg", "tiny"):
        cfg, log, out = get_train(run_cache, shipped_config, name, b_r=26)
        audit = pr.audit(cfg, "pairwise", log)
        assert audit.root == out.root
        small_zero = small_zero and audit.total_count == 0
    ok = (
        counts[26] <= counts[29] <= counts[32]
        and counts[26] == 0
        and counts[32] > 0
        and small_zero
    )
    record_criterion(
        3, f"correction trend {counts[26]} <= {counts[29]} <= {counts[32]}, zero at b_r=26", ok
    )
    assert ok, counts


def test_criterion_4_encoding_efficiency(tmp_path, run_cache, shipped_config):
    """Five-per-byte packing beats naive storage by at least 79 percent."""
    rng = np.random.default_rng(123)
    n = 1_000_000
    digits = rng.integers(0, 3, size=n).astype(np.uint8)
    path = tmp_path / "big.vtrl"
    with LogWriter(path, 32) as w:
        w.write_array(digits)
    size = path.stat().st_size
    payload_ok = (size - HEADER_LEN) <= 0.21 * n
    total_ok = size <= 0.25 * n
    back = LogReader(path).read_array(n)
    roundtrip_ok = np.array_equal(back, digits)

    # also on a real training log
    cfg, log, out = get_train(run_cache, shipped_config, "mlp")
    real_n = out.entries_logged
    real_ok = real_n >= 100_000 and (log.stat().st_size - HEADER_LEN) <= 0.21 * real_n
    ok = payload_ok and total_ok and roundtrip_ok and real_ok
    record_criterion(4, "packed log is at most 21 percent of naive bytes, roundtrip exact", ok)
    assert ok


def test_criterion_5_threshold_bounds_and_ordering():
    """Search stays inside its bracket; reduction layers need smaller tau.

    The profiles carry ``b_tr = 50``, the width ``divergence`` ships at. At
    64 the dense layer records no straddle at any ``b_r``, so every tau is
    the upper bound and the ordering compares equal numbers. At 50 it
    records some at ``b_r`` 29 and 32, where its tau must fall strictly
    below both elementwise taus; at 26 it records none, so ``<=`` holds.
    """
    pair = tuple(replace(get_profile(n), b_tr=50) for n in ("sequential", "pairwise"))
    taus, recorded = {}, {}
    in_bracket = True
    for b_r in (26, 29, 32):
        lo, hi = fp.tau_bounds(b_r)
        for layer in (sn.Dense(64, 64), sn.Relu(64), sn.Sigmoid(64)):
            label = layer.key.split(":")[0]
            samples = pr.collect_divergence_samples(layer, b_r, pair, 1200, Rng(b_r * 7 + 1))
            tau = pr.threshold_search(layer, b_r, pair, 1200, Rng(b_r * 7 + 1))
            taus[label, b_r], recorded[label, b_r] = tau, len(samples)
            in_bracket = in_bracket and lo <= tau <= hi and tau == pr.search_tau(samples, b_r)
    measured = all(recorded["dense", b] > 0 for b in (29, 32))
    strict = all(taus["dense", b] < min(taus["relu", b], taus["sigmoid", b]) for b in (29, 32))
    ok = in_bracket and measured and strict and taus["dense", 26] <= min(
        taus["relu", 26], taus["sigmoid", 26])
    record_criterion(5, "adaptive threshold bracket and dense < elementwise ordering at b_tr=50",
                     ok)
    assert ok, (taus, recorded)


def _serve_tree(tree):
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    server = game.GameServer(tree)
    thread = threading.Thread(
        target=server.serve_forever, args=(listener,), kwargs={"max_sessions": 1},
        daemon=True,
    )
    thread.start()
    return listener, thread, listener.getsockname()


def test_criterion_6_dispute_localization(tmp_path, shipped_config):
    """Twenty fuzzed tamper cases bisect to the oracle leaf with valid proofs."""
    base = shipped_config("tiny")
    rng = np.random.default_rng(42)
    checked = 0
    ok = True
    case = 0
    while checked < 20:
        case += 1
        k = int(rng.integers(1, 5))
        epochs = int(rng.integers(2, 5))
        cfg = replace(
            base, checkpoint_interval=k, epochs=epochs, seed=int(rng.integers(0, 10_000)),
            name=f"fuzz{case}",
        )
        honest_log = tmp_path / f"h{case}.vtrl"
        honest = pr.train(cfg, honest_log)
        honest_tree = honest.tree

        use_log_corruption = checked % 5 == 4
        if use_log_corruption:
            digits = LogReader(honest_log).read_array(honest.entries_logged).copy()
            hit = find_corruptible_entry(
                cfg, digits, honest.root, tmp_path / f"c{case}.vtrl", max_tries=40
            )
            if hit is None:
                continue
            entry, s = hit
            auditor = pr.audit(cfg, cfg.trainer_profile, tmp_path / f"c{case}.vtrl")
            trainer_tree = honest_tree
            auditor_tree = auditor.tree
            # corruption is read at step s; divergence cannot precede it
            min_leaf = (s - 1) // k
            expected = merkle.first_divergence(trainer_tree, auditor_tree)
            location_ok = expected is not None and expected >= min_leaf
        else:
            s = int(rng.integers(1, cfg.steps + 1))
            i = int(rng.integers(0, base.layers[0].in_dim))
            j = int(rng.integers(0, base.layers[0].out_dim))

            def flip(step, params, s=s, i=i, j=j):
                if step == s:
                    params[0][0][i, j] += 2.0**-8

            tampered = pr.train(cfg, tmp_path / f"t{case}.vtrl", tamper=flip)
            trainer_tree = tampered.tree
            auditor_tree = honest_tree
            expected = -(-s // k) - 1  # first checkpoint index at/after step s
            oracle = next(
                (x for x in range(len(trainer_tree.leaves))
                 if trainer_tree.leaves[x] != auditor_tree.leaves[x]),
                None,
            )
            location_ok = oracle == expected

        listener, thread, addr = _serve_tree(trainer_tree)
        try:
            report = game.challenge(auditor_tree, addr, timeout=10)
        finally:
            thread.join(timeout=10)
            listener.close()
        n = len(trainer_tree.leaves)
        bound = 2 * int(np.ceil(np.log2(max(n, 2)))) + 2
        case_ok = (
            location_ok
            and report.outcome == game.DISPUTE_AT_LEAF
            and report.leaf_index == merkle.first_divergence(trainer_tree, auditor_tree)
            and report.node_requests <= bound
            and game.judge_check(report, trainer_tree.root, auditor_tree.root)
        )
        ok = ok and case_ok
        checked += 1
    record_criterion(6, "dispute localization over 20 fuzzed tamper cases", ok)
    assert ok


def test_criterion_7_storage_formula(run_cache, shipped_config):
    """Measured log file size equals the estimate exactly for 5 configs."""
    ok = True
    for name in SHIPPED:
        cfg, log, out = get_train(run_cache, shipped_config, name)
        est = pr.estimate_log_entries(cfg)
        ok = ok and log.stat().st_size == est.file_bytes and out.entries_logged == est.entries
    record_criterion(7, "log size equals the storage formula on 5 shipped configs", ok)
    assert ok


def test_criterion_8_logistic_regression_scale_point(tmp_path, shipped_config):
    """Logistic task: train plus audit under 10 s with equal roots and a report."""
    runner = CliRunner()
    config_path = str(CONFIG_DIR / "logreg.json")
    start = time.perf_counter()
    trained = runner.invoke(cli_main, ["train", config_path, "--out", str(tmp_path)])
    assert trained.exit_code == 0, trained.output
    root = trained.output.strip().splitlines()[-1]
    audited = runner.invoke(cli_main, [
        "audit", config_path, "--profile", "pairwise",
        "--log", str(tmp_path / "logreg.vtrl"),
        "--expect-root", root, "--out", str(tmp_path),
    ])
    elapsed = time.perf_counter() - start
    report = json.loads((tmp_path / "logreg.audit.json").read_text())
    ok = (
        audited.exit_code == 0
        and elapsed < 10.0
        and report["match"] is True
        and report["log_bytes"] > 0
        and report["audit_seconds"] > 0
    )
    record_criterion(8, f"logistic train+audit in {elapsed:.1f}s with equal roots", ok)
    assert ok, audited.output


@pytest.mark.parametrize("b_r", (26, 29, 32))
def test_criterion_9_numerical_core(b_r):
    """Grid-arithmetic invariants on a million fuzzed doubles per b_r."""
    rng = np.random.default_rng(1000 + b_r)
    n = 1_000_000
    x = rng.normal(size=n) * np.exp2(rng.integers(-40, 38, size=n))

    r = fp.rnd_array(x, b_r)
    idempotent = np.array_equal(fp.rnd_array(r, b_r), r)
    membership = bool(fp.is_on_grid(r, b_r).all())

    below, above = fp.grid_neighbors_array(x, b_r)
    codes = rng.integers(0, 3, size=n).astype(np.uint8)
    rev_out = fp.rev_array(x, b_r, codes)
    rev_ok = (
        bool(np.all((rev_out == below) | (rev_out == above)))
        and np.array_equal(
            fp.rev_array(x, b_r, np.full(n, fp.IGNORE, np.uint8)), r
        )
    )

    tau = 0.25 * 2.0**-23
    scale = np.maximum(fp.exponent_scale_array(x), fp.SCALE_FLOOR)
    bound = np.minimum(0.25 * fp.epsilon(b_r, 1.0) * scale, tau * scale)
    x_p = x + rng.uniform(-1, 1, size=n) * bound
    keep = (
        (np.abs(x_p - x) < bound)
        & (fp.exponent_scale_array(x_p) == fp.exponent_scale_array(x))
    )
    dirs = fp.direction_array(x[keep], b_r, tau)
    sync = np.array_equal(
        fp.rev_array(x_p[keep], b_r, dirs), fp.rev_array(x[keep], b_r, dirs)
    )

    ok = idempotent and membership and rev_ok and sync
    if b_r == 32:
        ok = ok and _dense_gradient_check()
    record_criterion(9, f"numerical core invariants at b_r={b_r} on 1e6 samples", ok)
    assert ok


def _dense_gradient_check() -> bool:
    rng = np.random.default_rng(77)
    seq = get_profile("sequential")
    for _ in range(100):
        n = int(rng.integers(1, 5))
        din = int(rng.integers(1, 6))
        dout = int(rng.integers(1, 5))
        x = rng.normal(size=(n, din))
        W = rng.normal(size=(din, dout))
        b = rng.normal(size=dout)
        target = rng.normal(size=(n, dout))
        grad_out = sn.dense_forward(x, W, b, seq) - target
        gx, gW, gb = sn.dense_backward(grad_out, x, W, seq)

        def loss():
            d = sn.dense_forward(x, W, b, seq) - target
            return float((d * d).sum() / 2)

        h = 1e-6
        for analytic, arr in ((gx, x), (gW, W), (gb, b)):
            flat = arr.reshape(-1)
            aflat = analytic.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                hi = loss()
                flat[i] = old - h
                lo = loss()
                flat[i] = old
                numeric = (hi - lo) / (2 * h)
                denom = max(abs(numeric), 1e-3)
                if abs(aflat[i] - numeric) / denom >= 1e-5:
                    return False
    return True


def test_criterion_10_model_quality(run_cache, shipped_config):
    """Rounding leaves model quality intact on the shipped classifier."""
    _, _, out32 = get_train(run_cache, shipped_config, "mlp")
    _, _, out26 = get_train(run_cache, shipped_config, "mlp", b_r=26)
    rel = abs(out26.final_loss - out32.final_loss) / out32.final_loss
    ok = out32.train_accuracy >= 0.90 and rel < 0.10
    record_criterion(
        10,
        f"accuracy {out32.train_accuracy:.3f} at b_r=32, loss shift {rel:.3%} at b_r=26",
        ok,
    )
    assert ok
