"""Benchmark: regenerate Fig. 13 (energy comparison)."""

from repro.experiments import fig13_energy


def test_fig13_energy():
    rows = fig13_energy.run(size="tiny", workload_names=("pagerank", "hotspot"))
    stats = fig13_energy.summary(rows)
    assert stats["mcn_over_dl_energy"] > 1.0       # paper: 1.76x
    assert stats["aim_has_lowest_idc_energy"] == 1.0
