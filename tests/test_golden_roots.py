"""Roots, counts and final losses pinned from a known-good build.

Any change to rounding, replay or accumulation order that moves a bit of
a trained model moves these roots. The shipped small configs run at
``b_tr = 64``, where every ordered (trainer, auditor) profile pair ends on
the trainer's root with no corrections; ``divergence`` at ``b_tr = 50`` is
the case that drives ``rev``'s correction path.
"""

from dataclasses import replace

import pytest

from vtrain import protocol as pr

PROFILES = ("sequential", "reversed", "pairwise", "chunked7")

# config -> (root, entries_logged), the same for every trainer profile
SMALL = {
    "tiny": ("bf2228d24cc3130585e0ca8c2ae48139e4c54395dba4d8c6348e6bd57abcc68d", 3584),
    "mlp": ("32d09567cdcbfdf37a31e32c70a88a3fd2204d5f060b1ed86ae31f4d655bbc5c", 143360),
    "logreg": ("be7811535b50893cdde9110d491b5fc34e3a3d7637c55c0dde1b505790f61738", 16384),
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

# trainer sequential, auditor reversed
DIVERGENCE_ROOT = "435e33bb20cd8e642d0bf2d128c2824abbc3299a76f82feee01b8abac0fac6a6"
DIVERGENCE_CORRECTIONS = 194
DIVERGENCE_UNCORRECTED_ROOT = "0f067625c3889d3002244080bb7644a2e54608b34b1b059b1db85308738c0443"


@pytest.mark.parametrize("trainer", PROFILES)
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_config_roots(shipped_config, tmp_path, name, trainer):
    root, entries = SMALL[name]
    cfg = replace(shipped_config(name), trainer_profile=trainer)
    log = tmp_path / "run.vtrl"
    out = pr.train(cfg, log)
    assert (out.root_hex, out.entries_logged) == (root, entries)
    assert (out.final_loss.hex(), out.train_accuracy) == (FINAL_LOSS[name][trainer], 1.0)
    for auditor in PROFILES:
        if auditor != trainer:
            result = pr.audit(cfg, auditor, log)
            assert (auditor, result.root_hex, result.total_count) == (auditor, root, 0)


def test_divergence_roots(shipped_config, tmp_path):
    cfg = shipped_config("divergence")
    assert (cfg.b_tr, cfg.trainer_profile) == (50, "sequential")
    log = tmp_path / "run.vtrl"
    assert pr.train(cfg, log).root_hex == DIVERGENCE_ROOT
    result = pr.audit(cfg, "reversed", log)
    assert (result.root_hex, result.total_count) == (DIVERGENCE_ROOT, DIVERGENCE_CORRECTIONS)
    assert pr.audit_without_corrections(cfg, "reversed").root_hex == DIVERGENCE_UNCORRECTED_ROOT
