"""Roots, counts, log bytes, final losses and threshold tables pinned from
a known-good build.

Any change to rounding, replay or accumulation order that moves a bit of
a trained model moves these roots. The shipped small configs run at
``b_tr = 64``, where every ordered (trainer, auditor) profile pair ends on
the trainer's root with no corrections; ``divergence`` at ``b_tr = 50`` is
the case that drives ``rev``'s correction path. Where no audit corrects
anything, a change that moves only codes (a trainer reading the wrong
tau, say) moves no root, so the SHA-256 of every log is pinned too, and
of the code stream it decodes to, which a change of file format keeps.
"""

import hashlib
from dataclasses import replace

import pytest

from vtrain import protocol as pr
from vtrain.roundlog import LogReader

PROFILES = ("sequential", "reversed", "pairwise", "chunked7")

# config -> (root, entries_logged), the same for every trainer profile
SMALL = {
    "tiny": ("bf2228d24cc3130585e0ca8c2ae48139e4c54395dba4d8c6348e6bd57abcc68d", 3584),
    "mlp": ("32d09567cdcbfdf37a31e32c70a88a3fd2204d5f060b1ed86ae31f4d655bbc5c", 143360),
    "logreg": ("be7811535b50893cdde9110d491b5fc34e3a3d7637c55c0dde1b505790f61738", 16384),
}

# run -> SHA-256 of its .vtrl, the same for every trainer profile
LOG_SHA256 = {
    "tiny": "b2ced50c050d8f5bb18d706b097d6de2e3ee5a9b7c8889214234e17e7e90f8c1",
    "mlp": "562d247d582aaaa2c4ab495ea55e73520288dc9648a8db3755061b5ce7ebc2df",
    "logreg": "9a082cfd5ef733adc93881e9ef6fa6acb9ac0cbeda157433a73b327fade16d05",
    "wide": "258bf9a9bbfb22ce0589c2b5d8fe87e96b5872302c93e8991e8e6306ff24f690",
    "divergence": "ca5b6f56350f1738a172b99a97482948693b48d9d4db5f3c84aa2131de045f12",
}

# run -> SHA-256 of its code stream, one byte an entry as ``LogReader``
# returns it: what the log holds, whatever its file format. Pinned from
# the version-2 logs; a format change moves LOG_SHA256 and not these.
CODES_SHA256 = {
    "tiny": "8bba747ba1069197e484dbb1f09df594d6505f0dbcb5c17ea7f3ba74af912539",
    "mlp": "ce142c1c738d445c10a8d15f1fbb85addd68656d6eaa589e2e0eb2a61df39d17",
    "logreg": "c7c7033c30eb369ba89a0ff2d5f5ed4bdb5eb826b89b0e47dda1fdffc382d767",
    "wide": "b3624293aef552907f04caf9cfebeeea1ba237b49325010eb135ca6d16b849f1",
    "divergence": "6daee1baf25de4fb27a2e4e3976c01c787610b9c71a5fbbeed4055b5f1666b13",
}

# config -> trainer profile -> final_loss.hex(); the loss sums in the
# trainer's order, so its last bits follow the profile. Accuracy is 1.0.
FINAL_LOSS = {
    "tiny": {"sequential": "0x1.2e623a5c4204cp-2", "reversed": "0x1.2e623a5c4204fp-2",
             "pairwise": "0x1.2e623a5c4204dp-2", "chunked7": "0x1.2e623a5c4204cp-2"},
    "mlp": {"sequential": "0x1.f631f14745c64p-8", "reversed": "0x1.f631f14745c5fp-8",
            "pairwise": "0x1.f631f14745c5ep-8", "chunked7": "0x1.f631f14745c63p-8"},
    "logreg": {"sequential": "0x1.e7b65bdb81012p-6", "reversed": "0x1.e7b65bdb81011p-6",
               "pairwise": "0x1.e7b65bdb81013p-6", "chunked7": "0x1.e7b65bdb81006p-6"},
}

# configs/trend.json cut to 512 samples and one epoch (16 steps, a
# checkpoint each), seed 1: the benchmark's wide-replay shape. Its first
# layer's forward sum and weight gradient (32 terms of 32 x 256) have
# product tensors past simnet._ELEMENT_BUDGET, so they are summed in
# blocks of rows, which the small configs never reach. (root,
# entries_logged), the same for every trainer profile, with no correction
# on any auditor.
WIDE = ("3f107b3c169eae4e7097248c764e31f8d8785f20c56ca14eb58f5434d4826323", 266240)
WIDE_FINAL_LOSS = {"sequential": "0x1.678669b4e4743p+0", "reversed": "0x1.678669b4e4743p+0",
                   "pairwise": "0x1.678669b4e475cp+0", "chunked7": "0x1.678669b4e4754p+0"}

# trainer sequential
DIVERGENCE_ROOT = "435e33bb20cd8e642d0bf2d128c2824abbc3299a76f82feee01b8abac0fac6a6"
DIVERGENCE_CORRECTIONS = {"reversed": 194, "pairwise": 176, "chunked7": 125}
DIVERGENCE_UNCORRECTED_ROOT = "0f067625c3889d3002244080bb7644a2e54608b34b1b059b1db85308738c0443"

# config -> the table ``vtrain threshold`` prints, in its key order. No
# straddle on the b_tr = 64 configs leaves every slot at the upper bound;
# divergence's dense slots straddle at or below the floor.
HI, LO = 2.0**-24, 2.0**-25
TABLES = {
    "tiny": {"dense:8x12": HI, "dense:12x2": HI, "loss:softmax_xent": HI},
    "mlp": {"dense:16x32": HI, "dense:32x3": HI, "loss:softmax_xent": HI},
    "logreg": {"dense:64x1": HI, "sigmoid": HI, "loss:bce": HI},
    "trend": {"dense:32x256": HI, "dense:256x4": HI, "loss:softmax_xent": HI},
    "divergence": {"dense:32x256": LO, "dense:256x4": LO,
                   "loss:softmax_xent": float.fromhex("0x1.9249fffffffffp-25")},
}


def log_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_log(path, name: str) -> None:
    assert log_sha256(path) == LOG_SHA256[name]
    reader = LogReader(path)
    codes = reader.read_array(reader.entry_count)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == CODES_SHA256[name]


@pytest.mark.parametrize("trainer", PROFILES)
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_config_roots(shipped_config, tmp_path, name, trainer):
    root, entries = SMALL[name]
    cfg = replace(shipped_config(name), trainer_profile=trainer)
    log = tmp_path / "run.vtrl"
    out = pr.train(cfg, log)
    assert (out.root_hex, out.entries_logged) == (root, entries)
    check_log(log, name)
    assert (out.final_loss.hex(), out.train_accuracy) == (FINAL_LOSS[name][trainer], 1.0)
    for auditor in PROFILES:
        if auditor != trainer:
            result = pr.audit(cfg, auditor, log)
            corrections = sum(map(sum, result.per_step))
            assert (auditor, result.root_hex, corrections) == (auditor, root, 0)


@pytest.mark.parametrize("trainer", PROFILES)
def test_wide_replay_roots(shipped_config, tmp_path, trainer):
    root, entries = WIDE
    cfg = replace(shipped_config("trend"), dataset_size=512, epochs=1, checkpoint_interval=1,
                  seed=1, trainer_profile=trainer)
    assert cfg.steps == 16
    log = tmp_path / "run.vtrl"
    out = pr.train(cfg, log)
    assert (out.root_hex, out.entries_logged) == (root, entries)
    check_log(log, "wide")
    assert out.final_loss.hex() == WIDE_FINAL_LOSS[trainer]
    for auditor in PROFILES:
        if auditor != trainer:
            result = pr.audit(cfg, auditor, log)
            corrections = sum(map(sum, result.per_step))
            assert (auditor, result.root_hex, corrections) == (auditor, root, 0)


def test_divergence_roots(shipped_config, tmp_path):
    cfg = shipped_config("divergence")
    assert (cfg.b_tr, cfg.trainer_profile) == (50, "sequential")
    log = tmp_path / "run.vtrl"
    assert pr.train(cfg, log).root_hex == DIVERGENCE_ROOT
    check_log(log, "divergence")
    for auditor, corrections in DIVERGENCE_CORRECTIONS.items():
        result = pr.audit(cfg, auditor, log)
        assert (auditor, result.root_hex, sum(map(sum, result.per_step))) == (
            auditor, DIVERGENCE_ROOT, corrections)
    assert pr.audit_without_corrections(cfg, "reversed").root_hex == DIVERGENCE_UNCORRECTED_ROOT


@pytest.mark.parametrize("name", sorted(TABLES))
def test_threshold_tables(shipped_config, name):
    table = pr.threshold_search(shipped_config(name))
    assert list(table.items()) == list(TABLES[name].items())
