"""Trainer/auditor loops, estimator, threshold search."""

import json
import math
import tracemalloc
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtrain import fpround, merkle, protocol as pr
from vtrain.protocol import TrainConfig

from harness import children_fetch
from vtrain.roundlog import LogReader, LogWriter
from vtrain.simnet import Dense, Relu, Rng, Sigmoid, get_profile, make_dataset

from conftest import CONFIG_DIR


def tiny_config(**overrides):
    base = dict(
        dataset_size=64,
        dim=8,
        classes=2,
        layers=(Dense(8, 12), Relu(), Dense(12, 2)),
        loss="softmax_xent",
        epochs=2,
        batch_size=8,
        learning_rate=0.4,
        checkpoint_interval=4,
        seed=2024,
        b_r=32,
        trainer_profile="sequential",
        name="tiny",
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_steps(self):
        assert tiny_config().steps == 16

    def test_b_r_range(self):
        # fpround's [10, 32] is the one range: tau_bounds checks it
        assert tiny_config(b_r=25).b_r == 25
        for bad in (9, 33, 30.0):
            with pytest.raises(ValueError, match="b_r must be an integer in"):
                tiny_config(b_r=bad)

    def test_batch_divides_dataset(self):
        with pytest.raises(ValueError):
            tiny_config(batch_size=7)

    def test_checkpoint_interval(self):
        with pytest.raises(ValueError):
            tiny_config(checkpoint_interval=0)
        with pytest.raises(ValueError):
            tiny_config(checkpoint_interval=99)
        # 16 steps: a checkpoint every 5 would leave step 16 in no leaf
        with pytest.raises(ValueError, match="does not divide"):
            tiny_config(checkpoint_interval=5)

    def test_training_precision(self):
        from vtrain.cli import load_config
        from conftest import CONFIG_DIR

        assert tiny_config(b_tr=50).b_tr == 50
        with pytest.raises(ValueError):
            tiny_config(b_tr=32)
        # divergence's widest reduction has 256 terms: 255 * 2^-(b_tr - 12)
        # must stay under tau = 2^-25, which b_tr = 45 does and 44 does not
        cfg = load_config(CONFIG_DIR / "divergence.json")
        assert cfg.b_tr == 50 and cfg.max_fan_in() == 256
        assert replace(cfg, b_tr=45).b_tr == 45
        with pytest.raises(ValueError):
            replace(cfg, b_tr=44)
        with pytest.raises(ValueError):
            replace(cfg, tau=0.0)

    # 0.1 ulp is below tau_bounds(32), 0.6 ulp above it
    @pytest.mark.parametrize("bad", [1.0, -1e-8, float("nan"), float("inf"),
                                     0.1 * 2.0**-23, 0.6 * 2.0**-23])
    def test_every_tau_is_range_checked(self, bad):
        # one check for a fixed tau and for every entry of an adaptive table;
        # the table names every logged slot, so only its bad entry is refused
        with pytest.raises(ValueError, match="neither 0.0 nor in"):
            tiny_config(tau=bad)
        table = {s.key: pr.DEFAULT_TAU for s in tiny_config().log_slots()}
        with pytest.raises(ValueError, match="neither 0.0 nor in"):
            tiny_config(tau={**table, "dense:12x2": bad})

    def test_adaptive_requires_table(self):
        with pytest.raises(ValueError, match="adaptive tau table keys"):
            tiny_config(tau={})

    @pytest.mark.parametrize("key, tau", [("relu", pr.DEFAULT_TAU), ("dense:32x265", 0.0)],
                             ids=["extra", "mistyped"])
    def test_adaptive_table_names_exactly_the_logged_slots(self, shipped_config, key, tau):
        """On ``divergence`` an extra ``relu`` key used to load silently, and a
        mistyped key's 0.0 used to reach ``check_b_tr``; both name the rule now."""
        cfg = shipped_config("divergence")
        table = {s.key: 2.0**-25 for s in cfg.log_slots()}
        assert replace(cfg, tau=table).tau == table
        with pytest.raises(ValueError, match="adaptive tau table keys .* are not the logged"):
            replace(cfg, tau={**table, key: tau})


def tiny_doc():
    from conftest import CONFIG_DIR

    return json.loads((CONFIG_DIR / "tiny.json").read_text())


class TestFromDict:
    def test_absent_keys_take_the_field_defaults(self):
        doc = tiny_doc()
        for key in ("b_r", "b_tr", "b_m", "tau", "trainer_profile", "name"):
            del doc[key]
        cfg = TrainConfig.from_dict(doc)
        defaults = {f.name: f.default for f in fields(TrainConfig) if f.default is not MISSING}
        assert sorted(defaults) == ["b_r", "b_tr", "name", "tau", "trainer_profile"]
        assert {name: getattr(cfg, name) for name in defaults} == defaults

    def test_tau_document_is_a_number_or_a_table(self):
        lo, hi = fpround.tau_bounds(32)
        fixed = TrainConfig.from_dict(dict(tiny_doc(), tau={"policy": "fixed", "value": hi}))
        assert fixed.tau == hi
        assert {fixed.tau_for(s.key) for s in fixed.log_slots()} == {hi}
        table = {"dense:8x12": lo, "dense:12x2": hi, "loss:softmax_xent": 0.0}
        adaptive = TrainConfig.from_dict(
            dict(tiny_doc(), tau={"policy": "adaptive", "table": table}))
        assert adaptive.tau == table
        assert [adaptive.tau_for(s.key) for s in adaptive.log_slots()] == [
            table[s.key] for s in adaptive.log_slots()]


class TestTrain:
    def test_single_step_single_leaf(self, tmp_path):
        cfg = tiny_config(epochs=1, batch_size=64, checkpoint_interval=1,
                          learning_rate=0.1)
        assert cfg.steps == 1
        out = pr.train(cfg, tmp_path / "one.vtrl")
        assert out.tree.leaf_count == 1
        assert out.root == merkle.node(out.tree, 0, 0)

    def test_zero_learning_rate_freezes_checkpoints(self, tmp_path):
        cfg = tiny_config(learning_rate=0.0)
        out = pr.train(cfg, tmp_path / "zero.vtrl")
        leaves = out.tree.levels[0]
        assert leaves == leaves[: merkle.DIGEST_LEN] * out.tree.leaf_count
        # with frozen weights even a profile change without corrections agrees
        for profile in ("pairwise", "reversed", "chunked7"):
            nr = pr.audit_without_corrections(cfg, profile)
            assert nr.root == out.root

    def test_deterministic_rerun(self, tmp_path):
        cfg = tiny_config()
        a = pr.train(cfg, tmp_path / "a.vtrl")
        b = pr.train(cfg, tmp_path / "b.vtrl")
        assert a.root == b.root
        assert (tmp_path / "a.vtrl").read_bytes() == (tmp_path / "b.vtrl").read_bytes()

    def test_log_size_matches_estimate(self, tmp_path):
        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "est.vtrl")
        est = pr.estimate_log_entries(cfg)
        assert out.entries_logged == est.entries
        assert (tmp_path / "est.vtrl").stat().st_size == est.file_bytes

    def test_weights_past_the_grid_end_the_run_at_their_step(self, tmp_path):
        with pytest.raises(pr.TrainingDiverged, match="^training diverged at step 4$") as e:
            pr.train(tiny_config(learning_rate=1e12), tmp_path / "lr.vtrl")
        assert e.value.step == 4

    # isfinite ends the run; the overflow and NaN on the way raise no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_loss_ends_the_run_at_its_step(self, tmp_path):
        cfg = tiny_config(layers=(Dense(8, 1), Sigmoid()), loss="bce")

        def saturate(step, params):
            if step == 2:
                # every sigmoid output rounds to 0, so a label-1 sample's loss is inf
                params[0][1][:] = -1e4

        with pytest.raises(pr.TrainingDiverged) as e:
            pr.train(cfg, tmp_path / "bce.vtrl", tamper=saturate)
        assert e.value.step == 3

    def test_weights_on_grid(self, tmp_path):
        from grid_oracle import is_on_grid

        for b_r in (26, 32):
            cfg = tiny_config(b_r=b_r)
            out = pr.train(cfg, tmp_path / f"grid{b_r}.vtrl")
            for t in (p for ps in out.params for p in ps):
                assert is_on_grid(t, b_r).all()


class TestEvaluate:
    """``evaluate`` runs the network a batch at a time and the loss once."""

    @staticmethod
    def _initial(cfg):
        rng = Rng(cfg.seed)
        X, y = make_dataset(cfg.dataset_size, cfg.dim, cfg.classes, rng)
        params = [[fpround.rnd_array(p, cfg.b_r) for p in layer.init(rng)]
                  for layer in cfg.layers]
        return params, X, y

    @pytest.mark.parametrize("name", ["trend", "logreg"])
    def test_matches_one_whole_batch(self, shipped_config, name):
        cfg = shipped_config(name)
        params, X, y = self._initial(cfg)
        profile = replace(get_profile("chunked7"), b_tr=cfg.b_tr)
        values, _ = pr._forward(cfg.layers, params, X, profile, pr._plain(cfg.b_r),
                                pr._slot_map(cfg))
        want, _ = pr._loss_forward(cfg.loss, values[-1], y, profile)
        loss, _ = pr.evaluate(cfg, params, get_profile("chunked7"), X, y)
        assert loss.hex() == want.hex()

    @pytest.mark.parametrize("name, rows", [("logreg", 2048), ("trend", 32)])
    def test_rows_per_chunk(self, shipped_config, monkeypatch, name, rows):
        # batch_size rows, or more while the widest dense layer's product
        # tensor fits simnet's element budget: 2^17 // (64 x 1) for logreg,
        # where trend's 32 x 256 allows fewer than its batch of 32
        cfg = shipped_config(name)
        params, X, y = self._initial(cfg)
        seen = []

        def forward(layers, params, x, *rest):
            seen.append(len(x))
            return forward_(layers, params, x, *rest)

        forward_ = pr._forward
        monkeypatch.setattr(pr, "_forward", forward)
        pr.evaluate(cfg, params, get_profile("sequential"), X, y)
        assert seen == [rows] * (len(X) // rows)

    def test_memory_does_not_grow_with_the_dataset(self, shipped_config):
        cfg = shipped_config("trend")
        params, X, y = self._initial(cfg)
        tracemalloc.start()
        try:
            pr.evaluate(cfg, params, get_profile("sequential"), X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestAudit:
    def test_same_profile_exact(self, tmp_path):
        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "log.vtrl")
        a = pr.audit(cfg, "sequential", tmp_path / "log.vtrl")
        assert a.root == out.root
        assert sum(map(sum, a.per_step)) == 0

    @pytest.mark.parametrize("profile", ["reversed", "pairwise", "chunked7"])
    def test_cross_profile_exact(self, tmp_path, profile):
        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "log.vtrl")
        a = pr.audit(cfg, profile, tmp_path / "log.vtrl")
        assert a.root == out.root

    def test_log_too_short(self, tmp_path):
        cfg = tiny_config()
        pr.train(cfg, tmp_path / "log.vtrl")
        reader = LogReader(tmp_path / "log.vtrl")
        with LogWriter(tmp_path / "short.vtrl", cfg.b_r) as writer:
            writer.write_array(reader.read_array(reader.entry_count - 10))
        with pytest.raises(pr.AuditFailure, match="operation-count mismatch"):
            pr.audit(cfg, "sequential", tmp_path / "short.vtrl")

    def test_leftover_entries(self, tmp_path):
        cfg = tiny_config()
        pr.train(cfg, tmp_path / "log.vtrl")
        short = tiny_config(epochs=1)
        with pytest.raises(pr.AuditFailure, match="operation-count mismatch"):
            pr.audit(short, "sequential", tmp_path / "log.vtrl")

    def test_b_r_mismatch(self, tmp_path):
        cfg = tiny_config()
        pr.train(cfg, tmp_path / "log.vtrl")
        with pytest.raises(pr.AuditFailure, match="b_r"):
            pr.audit(tiny_config(b_r=29), "sequential", tmp_path / "log.vtrl")

    def test_tampered_log_changes_root(self, tmp_path):
        from harness import find_corruptible_entry

        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "log.vtrl")
        reader = LogReader(tmp_path / "log.vtrl")
        digits = reader.read_array(reader.entry_count).copy()
        hit = find_corruptible_entry(cfg, digits, out.root, tmp_path / "probe.vtrl")
        assert hit is not None
        assert pr.audit(cfg, "sequential", tmp_path / "probe.vtrl").root != out.root

    def test_fault_injection_diverges_at_checkpoint(self, tmp_path):
        cfg = tiny_config()
        honest = pr.train(cfg, tmp_path / "h.vtrl")

        s = 6

        def flip(step, params):
            if step == s:
                params[0][0][0, 0] += 2.0**-10

        tampered = pr.train(cfg, tmp_path / "t.vtrl", tamper=flip)
        # first checkpoint at or after the tampered step (ceil(s/k), 0-based)
        want = -(-s // cfg.checkpoint_interval) - 1
        got = merkle.bisect(honest.tree, tampered.tree.root, children_fetch(tampered.tree))
        assert got.leaf_index == want


class TestChannels:
    def test_one_bit_pass_per_tensor(self, tmp_path, monkeypatch):
        # the trainer and the auditor take rounding, codes and corrections
        # from their one fused kernel; a second rnd_array pass would raise here
        ulp = 2.0**-23
        values = np.array([[1.0 + 0.6 * ulp, 1.0 + 0.4 * ulp, -3.0 - 0.7 * 2 * ulp],
                           [0.0, 1e-40, 2.5]])
        seen = np.array([[1.0 + 0.4 * ulp, 1.0 + 0.4 * ulp, -3.0 - 0.4 * 2 * ulp],
                         [0.0, 1e-40, 2.5]])
        want_rounded, want_codes, want_directed = fpround.round_and_code(
            values, 32, pr.DEFAULT_TAU)
        want_replayed, want_moved = fpround.replay(seen, 32, want_codes)
        assert want_moved == 2

        def refuse(*args, **kwargs):
            raise AssertionError("rnd_array called by a party's process")

        monkeypatch.setattr(fpround, "rnd_array", refuse)
        monkeypatch.setattr(pr, "rnd_array", refuse)
        cfg = tiny_config()
        slot = pr.Slot("forward", 0, "dense:8x12", values.size)
        def no_stage(profile):
            raise AssertionError("stage called by the trainer or the auditor")

        with LogWriter(tmp_path / "c.vtrl", 32) as writer:
            rounded, directed = pr._trainer(writer, cfg)(values, slot, no_stage)
        assert np.array_equal(rounded.view(np.uint64), want_rounded.view(np.uint64))
        assert directed == want_directed == int(np.count_nonzero(want_codes != fpround.IGNORE))
        reader = LogReader(tmp_path / "c.vtrl")
        replayed, corrections = pr._auditor(reader, 32)(seen, slot, no_stage)
        assert np.array_equal(replayed.view(np.uint64), want_replayed.view(np.uint64))
        assert np.array_equal(replayed, rounded)
        assert corrections == 2


SHIPPED = ("tiny", "mlp", "logreg", "trend", "divergence")

# tiny_config with a ReLU in front; pinned from a build that logged every ReLU output
RELU_FIRST_ROOT = "7185d6feb9bc284e2280a90372e9f9e1632643f35627b382204707121dab0483"


def _record_calls(monkeypatch, cfg, log):
    """Train, then audit and run the negative control on pairwise: per run,
    for every call its ``process`` gets, the slot, the tensor and what
    ``stage`` recomputes on the run's own profile."""
    runs, run = [], pr._run

    def recording(cfg, profile, process, *rest):
        calls, own = [], replace(profile, b_tr=cfg.b_tr)
        runs.append(calls)

        def record(values, slot, stage):
            calls.append((slot, values.copy(), stage(own)))
            return process(values, slot, stage)

        return run(cfg, profile, record, *rest)

    monkeypatch.setattr(pr, "_run", recording)
    pr.train(cfg, log)
    pr.audit(cfg, "pairwise", log)
    pr.audit_without_corrections(cfg, "pairwise")
    return runs


def two_steps(cfg):
    """The config cut to two steps; the per-step layout does not depend on the count."""
    return replace(cfg, dataset_size=2 * cfg.batch_size, epochs=1, checkpoint_interval=1)


class TestLogLayout:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_channel_gets_exactly_step_layout(self, shipped_config, tmp_path, monkeypatch,
                                                    name):
        # train, audit and the control each hand process log_slots once per step, in order
        cfg = two_steps(shipped_config(name))
        runs = _record_calls(monkeypatch, cfg, tmp_path / "run.vtrl")
        assert len(runs) == 3
        for calls in runs:
            assert [slot for slot, _, _ in calls] == cfg.log_slots() * cfg.steps
            assert [values.size for _, values, _ in calls] == [slot.entries for slot, _, _ in calls]

    @pytest.mark.parametrize("name", SHIPPED)
    def test_stage_recomputes_the_logged_tensor(self, shipped_config, tmp_path, monkeypatch,
                                                name):
        # each closure is bound to the inputs its tensor came from, so on
        # the run's own profile it gives the same bits in every party
        cfg = two_steps(shipped_config(name))
        for calls in _record_calls(monkeypatch, cfg, tmp_path / "run.vtrl"):
            for slot, values, again in calls:
                assert again.view(np.uint64).tobytes() == values.view(np.uint64).tobytes(), slot

    def test_every_channel_call_gets_its_slots_tau(self, tmp_path, monkeypatch):
        # the trainer rounds each tensor at tau_for its slot's key
        lo, hi = fpround.tau_bounds(32)
        keys = ("dense:8x12", "dense:12x2", "loss:softmax_xent")
        table = {key: lo + (k + 1) * (hi - lo) / 4 for k, key in enumerate(keys)}
        cfg = two_steps(tiny_config(tau=table))
        assert len(set(table.values())) == len(keys)
        taus, real = [], pr.round_and_code

        def recording(values, b_r, tau):
            taus.append(tau)
            return real(values, b_r, tau)

        monkeypatch.setattr(pr, "round_and_code", recording)
        pr.train(cfg, tmp_path / "run.vtrl")
        assert taus == [table[s.key] for s in cfg.log_slots()] * cfg.steps

    def test_first_stage_input_gradient_never_computed(self, shipped_config, tmp_path,
                                                       monkeypatch):
        from vtrain import simnet

        shapes = []
        real = simnet.dense_input_grad

        def recording(grad_out, W, profile):
            shapes.append(W.shape)
            return real(grad_out, W, profile)

        monkeypatch.setattr(simnet, "dense_input_grad", recording)
        cfg = two_steps(shipped_config("trend"))
        pr.train(cfg, tmp_path / "trend.vtrl")
        assert shapes == [(256, 4)] * cfg.steps

        def refuse(*args):
            raise AssertionError("first stage's input gradient computed")

        # logreg's one dense layer is its first stage
        monkeypatch.setattr(simnet, "dense_input_grad", refuse)
        cfg = two_steps(shipped_config("logreg"))
        pr.train(cfg, tmp_path / "logreg.vtrl")
        pr.audit(cfg, "chunked7", tmp_path / "logreg.vtrl")

    def test_first_stage_relu_keeps_its_forward_slot(self, tmp_path):
        # it sees the raw batch, which is off the grid
        cfg = tiny_config(layers=(Relu(),) + tiny_config().layers)
        assert [f"{s.pass_}:{s.key}" for s in cfg.log_slots()] == [
            "forward:relu", "forward:dense:8x12", "forward:dense:12x2",
            "backward:loss:softmax_xent", "backward:dense:12x2", "backward:dense:8x12"]
        out = pr.train(cfg, tmp_path / "r.vtrl")
        assert out.root_hex == RELU_FIRST_ROOT
        assert pr.audit(cfg, "pairwise", tmp_path / "r.vtrl").root == out.root

    def test_adaptive_table_needs_no_entry_for_unlogged_stages(self, tmp_path):
        table = {key: pr.DEFAULT_TAU for key in ("dense:8x12", "dense:12x2", "loss:softmax_xent")}
        cfg = tiny_config(tau=table)
        out = pr.train(cfg, tmp_path / "adaptive.vtrl")
        assert out.root == pr.train(tiny_config(), tmp_path / "fixed.vtrl").root
        assert pr.audit(cfg, "pairwise", tmp_path / "adaptive.vtrl").root == out.root


class TestNegativeControlMechanics:
    def test_same_profile_no_corrections_agrees(self, tmp_path):
        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "log.vtrl")
        nr = pr.audit_without_corrections(cfg, "sequential")
        assert nr.root == out.root

    def test_checkpoints_returned_when_asked(self, tmp_path):
        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "log.vtrl", keep_checkpoints=True)
        assert out.checkpoints is not None
        assert len(out.checkpoints) == out.tree.leaf_count
        nr, _ = pr._run(cfg, get_profile("pairwise"), pr._plain(cfg.b_r), True)
        assert len(nr.checkpoints) == out.tree.leaf_count
        for a, b in zip(out.checkpoints, nr.checkpoints):
            assert [t.shape for t in a] == [t.shape for t in b]


class TestEstimate:
    def test_single_dense_layer(self):
        cfg = TrainConfig(
            dataset_size=4, dim=2, classes=3,
            layers=(Dense(2, 3),), loss="softmax_xent",
            epochs=1, batch_size=4, learning_rate=0.1,
            checkpoint_interval=1, seed=0, name="bare",
        )
        est = pr.estimate_log_entries(cfg)
        # 12 forward and 12 loss gradient; the only input gradient is the first stage's
        assert est.entries == 24
        assert est.payload_bytes == 5

    def test_doubling_epochs_doubles_entries(self):
        one = pr.estimate_log_entries(tiny_config(epochs=2))
        two = pr.estimate_log_entries(tiny_config(epochs=4))
        assert two.entries == 2 * one.entries

    def test_matches_real_run(self, tmp_path):
        for cfg in (tiny_config(), tiny_config(loss="softmax_xent", epochs=1),
                    tiny_config(batch_size=16)):
            out = pr.train(cfg, tmp_path / f"{cfg.name}-{cfg.epochs}-{cfg.batch_size}.vtrl")
            est = pr.estimate_log_entries(cfg)
            assert out.entries_logged == est.entries


class TestThresholdSearch:
    def test_empty_samples_returns_upper(self):
        for b_r in (26, 32):
            assert pr.search_tau(math.inf, b_r) == 0.5 * 2.0 ** (9 - b_r)

    def test_single_sample_is_undercut_by_one_ulp(self):
        lo, hi = fpround.tau_bounds(32)
        d = 0.4 * 2.0**-23
        assert pr.search_tau(d, 32) == math.nextafter(d, 0.0)
        assert pr.search_tau(hi, 32) == math.nextafter(hi, 0.0)
        # a sample above the bracket pins the search at the upper end
        assert pr.search_tau(1.0, 32) == hi
        # at or below the lower end the search returns the lower end
        for d in (lo, 0.5 * lo, 0.0):
            assert pr.search_tau(d, 32) == lo

    def test_smallest_sample_decides(self):
        d = 0.3 * 2.0**-23
        assert pr.search_tau(min([0.45 * 2.0**-23, d, 1.0]), 32) == math.nextafter(d, 0.0)

    def test_bracket_always_respected(self):
        rng = np.random.default_rng(1)
        for b_r in (26, 29, 32):
            lo, hi = 0.25 * 2.0**-23, 0.5 * 2.0 ** (9 - b_r)
            for _ in range(20):
                samples = rng.uniform(0, 2 * hi, size=rng.integers(0, 6)).tolist()
                tau = pr.search_tau(min(samples, default=math.inf), b_r)
                assert lo <= tau <= hi

    def test_search_deterministic(self, shipped_config):
        cfg = replace(shipped_config("logreg"), b_tr=44)
        assert pr.threshold_search(cfg) == pr.threshold_search(cfg)

    def test_elementwise_layer_sees_no_divergence(self, shipped_config):
        """On ``logreg`` at ``b_tr = 44`` only the dense output straddles: the
        sigmoid and the loss gradient are the same expression on every profile."""
        table = pr.threshold_search(replace(shipped_config("logreg"), b_tr=44))
        lo, hi = fpround.tau_bounds(32)
        assert list(table) == ["dense:64x1", "sigmoid", "loss:bce"]
        assert lo < table["dense:64x1"] < hi
        assert table["sigmoid"] == table["loss:bce"] == hi

    @pytest.mark.parametrize("name", ["logreg", "divergence"])
    def test_comparison_runs_end_on_the_trainer_root(self, tmp_path, monkeypatch,
                                                     shipped_config, name):
        """The search is one pass on the trainer's profile, which ends where
        the trainer does. It counts nothing, while every other profile
        straddles, and it finds what four whole runs find."""
        from harness import four_pass_threshold_search

        cfg = shipped_config(name)
        # divergence's first epoch straddles on every profile already
        cfg = replace(cfg, b_tr=44) if name == "logreg" else replace(cfg, epochs=1)
        trained = pr.train(cfg, tmp_path / "run.vtrl")
        runs, run = [], pr._run

        def recording_run(cfg, profile, *rest):
            out = run(cfg, profile, *rest)
            runs.append((profile, out[0]))
            return out

        monkeypatch.setattr(pr, "_run", recording_run)
        table = pr.threshold_search(cfg)
        monkeypatch.setattr(pr, "_run", run)
        want, straddles = four_pass_threshold_search(cfg)
        assert [profile for profile, _ in runs] == [pr.get_profile("sequential")]
        assert runs[0][1].root == trained.root
        assert list(straddles) == ["reversed", "pairwise", "chunked7"]
        assert min(straddles.values()) > 0
        assert sum(map(sum, runs[0][1].per_step)) == 0
        assert table == want

    @pytest.mark.parametrize("trainer, others", [("sequential", 3), ("chunked:7", 3),
                                                 ("chunked:3", 4)],
                             ids=["sequential", "chunked:7", "chunked:3"])
    def test_compares_orders_not_names(self, monkeypatch, shipped_config, trainer, others):
        """A trainer on ``chunked:7`` sums in ``chunked7``'s order, so only the
        three other orders are recomputed; one on ``chunked:3`` has an order
        of its own, so all four registered ones are. The table is what whole
        runs on each order find."""
        from harness import four_pass_threshold_search

        cfg = replace(shipped_config("logreg"), b_tr=44, trainer_profile=trainer)
        recomputed, run = set(), pr._run

        def recording_run(cfg, profile, process, *rest):
            def record(values, slot, stage):
                def recording_stage(other):
                    recomputed.add(other)
                    return stage(other)

                return process(values, slot, recording_stage)

            return run(cfg, profile, record, *rest)

        monkeypatch.setattr(pr, "_run", recording_run)
        table = pr.threshold_search(cfg)
        monkeypatch.setattr(pr, "_run", run)
        assert len(recomputed) == others
        assert replace(pr.get_profile(trainer), b_tr=44) not in recomputed
        assert recomputed <= {replace(p, b_tr=44) for p in pr.PROFILES.values()}
        assert table == four_pass_threshold_search(cfg)[0]

    def test_recomputes_no_weight_gradients(self, monkeypatch, shipped_config, tmp_path):
        """Another order recomputes a stage's input gradient only: the search
        makes the weight-gradient sums of the engine's own steps and no more."""
        from vtrain import simnet

        calls, real = [], simnet.dense_param_grads

        def counting(grad_out, x):
            calls.append(x.shape)
            return real(grad_out, x)

        monkeypatch.setattr(simnet, "dense_param_grads", counting)
        cfg = two_steps(shipped_config("trend"))
        pr.train(cfg, tmp_path / "trend.vtrl")
        trained, calls[:] = list(calls), []
        pr.threshold_search(cfg)
        assert calls == trained == [(32, 256), (32, 32)] * cfg.steps

    def test_table_pastes_into_the_config(self, tmp_path, shipped_config):
        """The table has one entry per distinct slot key, ``from_dict`` takes it
        as the config's tau, and honest audits of the run it tunes match."""
        for name in ("mlp", "divergence"):
            cfg = shipped_config(name)
            table = pr.threshold_search(cfg)
            assert list(table) == list(dict.fromkeys(s.key for s in cfg.log_slots()))
            doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
            doc["tau"] = json.loads(json.dumps({"policy": "adaptive", "table": table}))
            tuned = TrainConfig.from_dict(doc)
            assert tuned.tau == table
            log = tmp_path / f"{name}.vtrl"
            out = pr.train(tuned, log)
            for auditor in ("reversed", "pairwise", "chunked7"):
                assert pr.audit(tuned, auditor, log).root == out.root, (name, auditor)


@st.composite
def straddle_samples(draw):
    """A rounding amount and 1-20 distances around and inside its tau bracket."""
    b_r = draw(st.sampled_from((26, 29, 32)))
    lo, hi = fpround.tau_bounds(b_r)
    edges = (0.0, lo, hi, math.nextafter(lo, 0.0), math.nextafter(lo, 1.0),
             math.nextafter(hi, 0.0), math.nextafter(hi, 1.0))
    distance = st.one_of(st.sampled_from(edges), st.floats(0.0, 2.0 * hi), st.floats(lo, hi))
    return b_r, draw(st.lists(distance, min_size=1, max_size=20))


@settings(max_examples=300, deadline=None)
@given(case=straddle_samples())
def test_search_tau_undercuts_every_straddle(case):
    """The tau is in the bracket and codes every recorded straddle (``d > tau``),
    unless the smallest sits at or below the bracket; no larger double does that."""
    b_r, samples = case
    lo, hi = fpround.tau_bounds(b_r)
    tau = pr.search_tau(min(samples), b_r)
    assert lo <= tau <= hi
    assert tau < min(samples) or tau == lo
    assert tau == hi or math.nextafter(tau, 1.0) >= min(samples)


def test_bf16_grid_replays(tmp_path):
    """``tiny`` on the bfloat16 grid (``b_r = 16``) with an FP32-width
    accumulator (``b_tr = 35``), at a quarter of a bf16 grid step."""
    cfg = tiny_config(b_r=16, b_tr=35, tau=0.25 * 2.0**-7)
    log = tmp_path / "bf16.vtrl"
    out = pr.train(cfg, log)
    for auditor in ("reversed", "pairwise", "chunked7"):
        assert pr.audit(cfg, auditor, log).root == out.root, auditor


@pytest.mark.parametrize("b_r", (26, 29, 32))
def test_replication_all_profiles_small_shipped_configs(tmp_path, b_r):
    """The replication guarantee holds at every rounding amount."""
    from vtrain.cli import load_config
    from conftest import CONFIG_DIR

    for name in ("tiny", "logreg"):
        cfg = replace(load_config(CONFIG_DIR / f"{name}.json"), b_r=b_r)
        log = tmp_path / f"{name}-{b_r}.vtrl"
        out = pr.train(cfg, log)
        for auditor in ("reversed", "pairwise", "chunked7"):
            audit = pr.audit(cfg, auditor, log)
            assert audit.root == out.root, (name, b_r, auditor)
