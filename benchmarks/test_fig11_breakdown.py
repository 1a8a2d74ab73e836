"""Benchmark: regenerate Fig. 11 (DL-opt traffic breakdown)."""

from repro.experiments import fig11_breakdown


def test_fig11_breakdown():
    rows = fig11_breakdown.run(size="tiny", workload_names=("pagerank", "hotspot"))
    for row in rows:
        assert abs(
            row["local_share"] + row["intra_group_share"] + row["forwarded_share"] - 1.0
        ) < 1e-9
    # a minority of IDC traffic crosses the host (paper: ~29%)
    assert fig11_breakdown.mean_forwarded_fraction(rows) < 0.5
