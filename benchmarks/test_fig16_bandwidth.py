"""Benchmark: regenerate Fig. 16 (link bandwidth sweep).

Runs at the ``small`` size: link-bandwidth sensitivity only appears once
the DL network actually carries volume (at ``tiny`` the runs are
latency-dominated and the sweep is flat).
"""

from repro.experiments import fig16_bandwidth


def test_fig16_sweep():
    rows = fig16_bandwidth.run(
        size="small",
        bandwidths=(4.0, 64.0),
        config_names=("16D-8C",),
        workload_names=("pagerank",),
    )
    assert fig16_bandwidth.scaling_gain(rows, "16D-8C") > 1.2
