"""Benchmark: regenerate Fig. 15 (polling strategies)."""

from repro.experiments import fig15_polling


def test_fig15_polling():
    rows = fig15_polling.run(size="tiny", workload_names=("pagerank",))
    stats = fig15_polling.summary(rows)
    assert stats["baseline"]["mean_bus_occupancy"] > stats["proxy"]["mean_bus_occupancy"]
    assert stats["proxy"]["time_geomean_us"] <= min(
        s["time_geomean_us"] for s in stats.values()
    ) * 1.001
