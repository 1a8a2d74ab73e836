"""Benchmarks: regenerate Table I and Table II."""

from repro.experiments import table1_bandwidth_model, table2_serdes


def test_table1_bandwidth_model():
    rows = table1_bandwidth_model.run()
    by_config = {r["config"]: r for r in rows}
    assert by_config["16D-8C"]["dimm_link"] > by_config["16D-8C"]["dedicated_bus"]


def test_table2_serdes():
    rows = table2_serdes.run()
    assert {r["name"] for r in rows} == {"grs", "sma_cable", "ribbon_cable"}
