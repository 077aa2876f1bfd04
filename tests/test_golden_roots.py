"""Roots and counts pinned from a known-good build.

Any change to rounding, replay or accumulation order that moves a bit of
a trained model moves these roots. The shipped small configs run at
``b_tr = 64``, where every ordered (trainer, auditor) profile pair ends on
the trainer's root with no corrections; ``divergence`` at ``b_tr = 50`` is
the case that drives ``rev``'s correction path.
"""

import pytest

from vtrain import protocol as pr

PROFILES = ("sequential", "reversed", "pairwise", "chunked7")

# config -> (root, entries_logged), the same for every trainer profile
SMALL = {
    "tiny": ("bf2228d24cc3130585e0ca8c2ae48139e4c54395dba4d8c6348e6bd57abcc68d", 7680),
    "mlp": ("32d09567cdcbfdf37a31e32c70a88a3fd2204d5f060b1ed86ae31f4d655bbc5c", 307200),
    "logreg": ("be7811535b50893cdde9110d491b5fc34e3a3d7637c55c0dde1b505790f61738", 278528),
}

# trainer sequential, auditor reversed
DIVERGENCE_ROOT = "435e33bb20cd8e642d0bf2d128c2824abbc3299a76f82feee01b8abac0fac6a6"
DIVERGENCE_CORRECTIONS = 204
DIVERGENCE_UNCORRECTED_ROOT = "0f067625c3889d3002244080bb7644a2e54608b34b1b059b1db85308738c0443"


@pytest.mark.parametrize("trainer", PROFILES)
@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_config_roots(shipped_config, tmp_path, name, trainer):
    root, entries = SMALL[name]
    cfg = pr.config_with(shipped_config(name), trainer_profile=trainer)
    log = tmp_path / "run.vtrl"
    out = pr.train(cfg, log)
    assert (out.root_hex, out.entries_logged) == (root, entries)
    for auditor in PROFILES:
        if auditor != trainer:
            result = pr.audit(cfg, auditor, log)
            assert (auditor, result.root_hex, result.total_corrections) == (auditor, root, 0)


def test_divergence_roots(shipped_config, tmp_path):
    cfg = shipped_config("divergence")
    assert (cfg.b_tr, cfg.trainer_profile) == (50, "sequential")
    log = tmp_path / "run.vtrl"
    assert pr.train(cfg, log).root_hex == DIVERGENCE_ROOT
    result = pr.audit(cfg, "reversed", log)
    assert (result.root_hex, result.total_corrections) == (DIVERGENCE_ROOT, DIVERGENCE_CORRECTIONS)
    assert pr.audit_without_corrections(cfg, "reversed").root_hex == DIVERGENCE_UNCORRECTED_ROOT
