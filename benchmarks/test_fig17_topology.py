"""Benchmark: regenerate Fig. 17 (topology exploration)."""

from repro.experiments import fig17_topology


def test_fig17_topologies():
    rows = fig17_topology.run(size="tiny", workload_names=("pagerank",))
    gains = fig17_topology.speedups_over_half_ring(rows)
    assert set(gains) == {"half_ring", "ring", "mesh", "torus"}
    assert gains["torus"] >= 0.98
