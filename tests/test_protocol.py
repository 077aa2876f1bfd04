"""Trainer/auditor loops, estimator, threshold search, weight distance."""


import numpy as np
import pytest

from vtrain import fpround, merkle, protocol as pr
from vtrain.protocol import LayerSpec, TauPolicy, TrainConfig
from vtrain.roundlog import LogReader, LogWriter
from vtrain.simnet import Rng, get_profile


def tiny_config(**overrides):
    base = dict(
        dataset_size=64,
        dim=8,
        classes=2,
        layers=(LayerSpec("dense", 8, 12), LayerSpec("relu"), LayerSpec("dense", 12, 2)),
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
        with pytest.raises(ValueError):
            tiny_config(b_r=25)
        with pytest.raises(ValueError):
            tiny_config(b_r=33)

    def test_batch_divides_dataset(self):
        with pytest.raises(ValueError):
            tiny_config(batch_size=7)

    def test_checkpoint_interval(self):
        with pytest.raises(ValueError):
            tiny_config(checkpoint_interval=0)
        with pytest.raises(ValueError):
            tiny_config(checkpoint_interval=99)

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
        assert pr.config_with(cfg, b_tr=45).b_tr == 45
        with pytest.raises(ValueError):
            pr.config_with(cfg, b_tr=44)
        with pytest.raises(ValueError):
            pr.config_with(cfg, tau_policy=TauPolicy(value=0.0))

    def test_adaptive_requires_table(self, tmp_path):
        cfg = tiny_config(tau_policy=TauPolicy(kind="adaptive", table={}))
        with pytest.raises(ValueError, match="no entry"):
            pr.train(cfg, tmp_path / "never.vtrl")


class TestTrain:
    def test_single_step_single_leaf(self, tmp_path):
        cfg = tiny_config(epochs=1, batch_size=64, checkpoint_interval=1,
                          learning_rate=0.1)
        assert cfg.steps == 1
        out = pr.train(cfg, tmp_path / "one.vtrl")
        assert len(out.leaves) == 1
        assert out.root == out.leaves[0]

    def test_zero_learning_rate_freezes_checkpoints(self, tmp_path):
        cfg = tiny_config(learning_rate=0.0)
        out = pr.train(cfg, tmp_path / "zero.vtrl")
        assert len(set(out.leaves)) == 1
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

    def test_weights_on_grid(self, tmp_path):
        from vtrain.fpround import is_on_grid

        for b_r in (26, 32):
            cfg = tiny_config(b_r=b_r)
            out = pr.train(cfg, tmp_path / f"grid{b_r}.vtrl")
            for t in out.final_weights:
                assert is_on_grid(t.astype(np.float64), b_r).all()


class TestAudit:
    def test_same_profile_exact(self, tmp_path):
        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "log.vtrl")
        a = pr.audit(cfg, "sequential", tmp_path / "log.vtrl")
        assert a.root == out.root
        assert a.total_corrections == 0
        assert a.final_digest == out.final_digest

    @pytest.mark.parametrize("profile", ["reversed", "pairwise", "chunked7"])
    def test_cross_profile_exact(self, tmp_path, profile):
        cfg = tiny_config()
        out = pr.train(cfg, tmp_path / "log.vtrl")
        a = pr.audit(cfg, profile, tmp_path / "log.vtrl")
        assert a.root == out.root
        assert a.final_digest == out.final_digest

    def test_log_too_short(self, tmp_path):
        cfg = tiny_config()
        pr.train(cfg, tmp_path / "log.vtrl")
        reader = LogReader(tmp_path / "log.vtrl")
        reader.entry_count -= 10  # simulate a truncated stream
        with pytest.raises(pr.AuditFailure, match="operation-count mismatch"):
            pr.audit(cfg, "sequential", reader)

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

        def flip(stages):
            stages[0].W[0, 0] += 2.0**-10

        s = 6
        tampered = pr.train(cfg, tmp_path / "t.vtrl", tamper_after_step=s, tamper=flip)
        t1 = merkle.build(honest.leaves)
        t2 = merkle.build(tampered.leaves)
        # first checkpoint at or after the tampered step (ceil(s/k), 0-based)
        assert merkle.first_divergence(t1, t2) == -(-s // cfg.checkpoint_interval) - 1


class TestChannels:
    def test_one_bit_pass_per_tensor(self, tmp_path, monkeypatch):
        # each channel takes rounding, codes and corrections from its one
        # fused kernel; a second rnd_array pass would raise here
        ulp = 2.0**-23
        values = np.array([[1.0 + 0.6 * ulp, 1.0 + 0.4 * ulp, -3.0 - 0.7 * 2 * ulp],
                           [0.0, 1e-40, 2.5]])
        seen = np.array([[1.0 + 0.4 * ulp, 1.0 + 0.4 * ulp, -3.0 - 0.4 * 2 * ulp],
                         [0.0, 1e-40, 2.5]])
        want_rounded, want_codes = fpround.round_and_code(values, 32, pr.DEFAULT_TAU)
        want_replayed, want_moved = fpround.replay(seen, 32, want_codes)
        assert want_moved == 2

        def refuse(*args, **kwargs):
            raise AssertionError("rnd_array called by a channel")

        monkeypatch.setattr(fpround, "rnd_array", refuse)
        monkeypatch.setattr(pr, "rnd_array", refuse)
        with LogWriter(tmp_path / "c.vtrl", 32) as writer:
            rounded, directed, _ = pr._TrainerChannel(writer, 32).process(values, pr.DEFAULT_TAU)
        assert np.array_equal(rounded.view(np.uint64), want_rounded.view(np.uint64))
        assert directed == int(np.count_nonzero(want_codes != fpround.IGNORE))
        reader = LogReader(tmp_path / "c.vtrl")
        replayed, _, corrections = pr._AuditorChannel(reader, 32).process(seen, pr.DEFAULT_TAU)
        assert np.array_equal(replayed.view(np.uint64), want_replayed.view(np.uint64))
        assert np.array_equal(replayed, rounded)
        assert corrections == 2


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
        assert len(out.checkpoints) == len(out.leaves)
        nr = pr.audit_without_corrections(cfg, "pairwise", keep_checkpoints=True)
        series = [
            pr.weight_l2_distance(a, b)
            for a, b in zip(out.checkpoints, nr.checkpoints)
        ]
        assert len(series) == len(out.leaves)


class TestWeightL2:
    def test_zero_distance(self):
        w = [np.ones((2, 2)), np.zeros(3)]
        assert pr.weight_l2_distance(w, w) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = [rng.normal(size=(3, 4))]
        b = [rng.normal(size=(3, 4))]
        assert pr.weight_l2_distance(a, b) == pr.weight_l2_distance(b, a)

    def test_single_parameter(self):
        assert pr.weight_l2_distance([np.array([2.0])], [np.array([-1.5])]) == 3.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pr.weight_l2_distance([np.zeros(2)], [np.zeros(3)])


class TestEstimate:
    def test_single_dense_layer_no_loss(self):
        cfg = TrainConfig(
            dataset_size=4, dim=2, classes=2,
            layers=(LayerSpec("dense", 2, 3),), loss=None,
            epochs=1, batch_size=4, learning_rate=0.1,
            checkpoint_interval=1, seed=0, name="bare",
        )
        est = pr.estimate_log_entries(cfg)
        assert est.entries == 20  # 12 forward + 8 backward
        assert est.payload_bytes == 4

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
            assert pr.search_tau([], b_r, 30) == 0.5 * 2.0 ** (9 - b_r)

    def test_single_sample_convergence(self):
        lo, hi = 0.25 * 2.0**-23, 0.5 * 2.0**-23
        d = 0.4 * 2.0**-23
        tau = pr.search_tau([d], 32, 40)
        assert abs(tau - d) <= (hi - lo) * 2.0**-39
        # a sample above the bracket pins the search at the upper end
        tau = pr.search_tau([1.0], 32, 40)
        assert abs(tau - hi) <= (hi - lo) * 2.0**-39

    def test_bracket_always_respected(self):
        rng = np.random.default_rng(1)
        for b_r in (26, 29, 32):
            lo, hi = 0.25 * 2.0**-23, 0.5 * 2.0 ** (9 - b_r)
            for _ in range(20):
                samples = rng.uniform(0, 2 * hi, size=rng.integers(0, 6)).tolist()
                tau = pr.search_tau(samples, b_r, 25)
                assert lo <= tau <= hi

    def test_search_deterministic(self):
        layer = LayerSpec("dense", 16, 16)
        pair = (get_profile("sequential"), get_profile("pairwise"))
        t1 = pr.threshold_search(layer, 32, pair, 200, 20, Rng(5))
        t2 = pr.threshold_search(layer, 32, pair, 200, 20, Rng(5))
        assert t1 == t2

    def test_elementwise_layer_sees_no_divergence(self):
        layer = LayerSpec("relu", 16, 16)
        pair = (get_profile("sequential"), get_profile("pairwise"))
        samples = pr.collect_divergence_samples(layer, 32, pair, 300, Rng(6))
        assert samples == []
        assert pr.threshold_search(layer, 32, pair, 300, 10, Rng(6)) == 0.5 * 2.0**-23


@pytest.mark.parametrize("b_r", (26, 29, 32))
def test_replication_all_profiles_small_shipped_configs(tmp_path, b_r):
    """The replication guarantee holds at every rounding amount."""
    from vtrain.cli import load_config
    from conftest import CONFIG_DIR

    for name in ("tiny", "logreg"):
        cfg = pr.config_with(load_config(CONFIG_DIR / f"{name}.json"), b_r=b_r)
        log = tmp_path / f"{name}-{b_r}.vtrl"
        out = pr.train(cfg, log)
        for auditor in ("reversed", "pairwise", "chunked7"):
            audit = pr.audit(cfg, auditor, log)
            assert audit.root == out.root, (name, b_r, auditor)
            assert audit.final_digest == out.final_digest
