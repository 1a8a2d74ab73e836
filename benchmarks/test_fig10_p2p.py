"""Benchmark: regenerate Fig. 10 (P2P speedups) at tiny scale."""

from repro.experiments import fig10_p2p


def test_fig10_grid():
    rows = fig10_p2p.run(
        size="tiny",
        config_names=("4D-2C", "16D-8C"),
        workload_names=("pagerank", "hotspot"),
    )
    stats = fig10_p2p.summary(rows)
    # who wins: DIMM-Link-opt over CPU-forwarding, on geomean
    assert stats["dl_opt_over_mcn"] > 1.0
