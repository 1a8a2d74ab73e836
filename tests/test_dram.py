"""Tests for the DRAM substrate (timing, address map, banks, module)."""

import pytest

from repro.dram import (
    DDR4_2400_LRDIMM,
    LINE_BYTES,
    AddressMap,
    DRAMModule,
    decode_global,
    encode_global,
    preset,
)
from repro.errors import ConfigError
from repro.sim import Simulator, StatRegistry
from repro.sim.time import ns


# -- timing ------------------------------------------------------------------

def test_preset_lookup():
    assert preset("DDR4_2400_LRDIMM") is DDR4_2400_LRDIMM
    with pytest.raises(ConfigError):
        preset("DDR5_9000")


def test_rank_bandwidth_matches_data_rate():
    # 2400 MT/s x 8 bytes = 19.2 GB/s
    assert DDR4_2400_LRDIMM.rank_bandwidth_gbps == pytest.approx(19.2)


def test_derived_latencies_positive_and_ordered():
    t = DDR4_2400_LRDIMM
    assert 0 < t.tburst_ps < t.tcas_ps
    assert t.tcas_ps == ns(17 * 0.833)
    assert t.trcd_ps == t.trp_ps  # same clock count for this grade
    assert t.tras_ps > t.trcd_ps


def test_burst_bytes_is_cache_line():
    assert DDR4_2400_LRDIMM.burst_bytes == 64


# -- address mapping ----------------------------------------------------------

def test_address_map_interleaves_banks_first():
    amap = AddressMap(ranks=2, banks_per_rank=16, row_bytes=8192)
    loc0 = amap.decode(0)
    loc1 = amap.decode(LINE_BYTES)
    assert loc0.bank == 0 and loc1.bank == 1
    assert loc0.rank == loc1.rank == 0


def test_address_map_rank_after_banks():
    amap = AddressMap(ranks=2, banks_per_rank=16, row_bytes=8192)
    loc = amap.decode(16 * LINE_BYTES)
    assert loc.bank == 0
    assert loc.rank == 1


def test_address_map_round_trip_distinct():
    amap = AddressMap(ranks=2, banks_per_rank=16, row_bytes=8192)
    seen = set()
    for line in range(4096):
        seen.add(amap.decode(line * LINE_BYTES))
    assert len(seen) == 4096


def test_address_map_rejects_negative():
    amap = AddressMap(ranks=1, banks_per_rank=4, row_bytes=8192)
    with pytest.raises(ConfigError):
        amap.decode(-64)


def test_global_address_round_trip():
    addr = encode_global(13, 0x123456)
    assert decode_global(addr) == (13, 0x123456)


def test_global_address_range_checks():
    with pytest.raises(ConfigError):
        encode_global(32, 0)
    with pytest.raises(ConfigError):
        decode_global(1 << 42)


# -- module -------------------------------------------------------------------

def _module(ranks=2):
    sim = Simulator()
    stats = StatRegistry()
    return sim, stats, DRAMModule(sim, DDR4_2400_LRDIMM, ranks, stats)


def test_single_line_read_latency_is_miss_latency():
    sim, stats, dram = _module()
    times = []
    dram.access(0, 64, is_write=False).add_callback(lambda ev: times.append(sim.now))
    sim.run()
    t = DDR4_2400_LRDIMM
    expected = t.trcd_ps + t.tcas_ps + t.tburst_ps
    assert times == [expected]
    assert stats.get("dram.row_miss") == 1
    assert stats.get("dram.activates") == 1


def test_row_hit_is_faster_than_miss():
    sim, stats, dram = _module()
    done = []
    dram.access(0, 64, is_write=False).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    first = done[-1]
    dram.access(0, 64, is_write=False).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    second = done[-1] - first
    assert second < first
    assert stats.get("dram.row_hit") == 1


def test_row_conflict_slower_than_miss():
    sim, stats, dram = _module(ranks=1)
    t = DDR4_2400_LRDIMM
    row_stride = t.banks_per_rank * t.row_bytes  # same bank, next row
    done = []
    dram.access(0, 64, False).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    miss_latency = done[-1]
    start = sim.now
    dram.access(row_stride, 64, False).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    conflict_latency = done[-1] - start
    assert conflict_latency > miss_latency
    assert stats.get("dram.row_conflict") == 1


def test_bank_parallelism_beats_serialisation():
    # Two lines in different banks should complete much faster than 2x one.
    sim, _, dram = _module(ranks=1)
    done = []
    dram.access(0, 64, False).add_callback(lambda ev: done.append(sim.now))
    dram.access(64, 64, False).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    single = DDR4_2400_LRDIMM.trcd_ps + DDR4_2400_LRDIMM.tcas_ps + DDR4_2400_LRDIMM.tburst_ps
    assert done[-1] < 2 * single


def test_bulk_stream_achieves_near_peak_bandwidth():
    sim, _, dram = _module(ranks=2)
    nbytes = 1 << 20
    done = []
    dram.access(0, nbytes, False).add_callback(lambda ev: done.append(sim.now))
    sim.run()
    gbps = nbytes / (done[0] / 1000)  # bytes per ns == GB/s
    peak = dram.peak_bandwidth_gbps
    assert 0.5 * peak < gbps <= peak


def test_write_counts_write_bytes():
    sim, stats, dram = _module()
    dram.access(0, 256, is_write=True)
    sim.run()
    assert stats.get("dram.write_bytes") == 256
    assert stats.get("dram.read_bytes") == 0


def test_refresh_delays_access_inside_window():
    sim, _, dram = _module(ranks=1)
    t = DDR4_2400_LRDIMM
    # Land the request inside the refresh window at the end of interval 0.
    inside = t.trefi_ps - t.trfc_ps + 1
    done = []

    def issue(_):
        dram.access(0, 64, False).add_callback(lambda ev: done.append(sim.now))

    sim.schedule(inside, issue)
    sim.run()
    assert done[0] >= t.trefi_ps  # deferred past the refresh boundary


def test_zero_size_request_rejected():
    from repro.errors import SimulationError

    _, _, dram = _module()
    with pytest.raises(SimulationError):
        dram.access(0, 0, False)


@pytest.mark.parametrize("nbytes", [64, 8192])
def test_negative_offset_rejected_on_line_and_bulk_paths(nbytes):
    _, stats, dram = _module()
    with pytest.raises(ConfigError, match="negative address offset"):
        dram.access(-64, nbytes, False)
    assert stats.counters() == {}


def test_tfaw_limits_activate_bursts():
    """Five activates to distinct banks of one rank must respect tFAW."""
    sim, _, dram = _module(ranks=1)
    t = DDR4_2400_LRDIMM
    done = []
    # five different banks, all row misses -> five activates
    for bank in range(5):
        dram.access(bank * 64, 64, False).add_callback(
            lambda ev: done.append(sim.now)
        )
    sim.run()
    # the fifth activate cannot start before tFAW after the first
    first_activate = 0
    fifth_data = done[-1] - t.tcas_ps - t.tburst_ps - t.trcd_ps
    assert fifth_data >= first_activate + t.tfaw_ps - t.trcd_ps - 1


def test_trrd_spaces_back_to_back_activates():
    sim, _, dram = _module(ranks=1)
    t = DDR4_2400_LRDIMM
    done = []
    for bank in range(2):
        dram.access(bank * 64, 64, False).add_callback(
            lambda ev: done.append(sim.now)
        )
    sim.run()
    assert done[1] - done[0] >= min(t.trrd_ps, t.tburst_ps)


def test_precharge_all_forces_row_misses():
    sim, stats, dram = _module()
    dram.access(0, 64, False)
    sim.run()
    dram.precharge_all()
    dram.access(0, 64, False)
    sim.run()
    assert stats.get("dram.row_miss") == 2
    assert stats.get("dram.row_hit") == 0
