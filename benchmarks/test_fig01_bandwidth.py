"""Benchmark: regenerate Fig. 1 (CPU-forwarded IDC bandwidth)."""

from repro.experiments import fig01_idc_bandwidth


def test_fig01_p2p_sweep():
    rows = fig01_idc_bandwidth.run(sizes=(4096, 65536), total_bytes=1 << 18)
    assert rows[-1]["p2p_gbps"] > rows[0]["p2p_gbps"]
    assert rows[-1]["p2p_gbps"] < 19.2


def test_fig01_aggregate_gap():
    gap = fig01_idc_bandwidth.aggregate_gap()
    assert gap["gap_x"] > 20
