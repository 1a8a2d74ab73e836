"""Benchmark: regenerate Fig. 12 (broadcast comparison)."""

from repro.experiments import fig12_broadcast


def test_fig12_broadcast():
    rows = fig12_broadcast.run(
        size="tiny",
        dpc_configs=(("2DPC", "16D-8C"),),
        workload_names=("spmv_bc", "pagerank_bc"),
    )
    stats = fig12_broadcast.summary(rows)
    assert stats["dl_over_mcn_bc"] > 1.0
    assert stats["dl_over_abc"] > 1.0
    assert stats["aim_over_dl"] > 1.0
