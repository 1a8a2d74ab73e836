"""Benchmark: the distance-aware mapping ablation."""

from repro.experiments import mapping_ablation


def test_mapping_recovery():
    results = mapping_ablation.run(size="tiny", workload_names=("pagerank",))
    assert results["pagerank"]["speedup"] > 1.2
