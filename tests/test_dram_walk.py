"""Differential test: the per-request DRAM walk against the per-line model.

``DRAMModule.completion_time`` walks a request's cache lines in one loop
and flushes its counters once per request.  The reference below is the
per-line algorithm it replaced (decode every line, one bank access, one
rank access with its activate gate, three counter adds and one trace span
per line), kept here verbatim in spirit so any drift in completion times,
bank/rank state, counters or trace spans shows up as a failing example.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    BULK_THRESHOLD,
    DDR4_2400_LRDIMM,
    LINE_BYTES,
    AddressMap,
    DRAMModule,
    presets,
)
from repro.sim import Simulator, StatRegistry
from repro.trace.recorder import TraceRecorder


# -- reference model: one 64 B line at a time ----------------------------------

class RefBank:
    def __init__(self, timing):
        self.timing = timing
        self.open_row = None
        self.ready_at = 0
        self.activated_at = 0

    def access(self, now, row, is_write, act_gate):
        timing = self.timing
        start = max(now, self.ready_at)
        if self.open_row == row:
            category = "row_hit"
            data_ready = start + timing.tcas_ps
            self.ready_at = start + timing.tburst_ps
        elif self.open_row is None:
            category = "row_miss"
            act_at = max(start, act_gate)
            data_ready = act_at + timing.trcd_ps + timing.tcas_ps
            self.open_row = row
            self.activated_at = act_at
            self.ready_at = act_at + timing.trcd_ps + timing.tburst_ps
        else:
            category = "row_conflict"
            pre_at = max(start, self.activated_at + timing.tras_ps)
            act_at = max(pre_at + timing.trp_ps, act_gate)
            data_ready = act_at + timing.trcd_ps + timing.tcas_ps
            self.open_row = row
            self.activated_at = act_at
            self.ready_at = act_at + timing.trcd_ps + timing.tburst_ps
        if is_write:
            self.ready_at = max(self.ready_at, data_ready + timing.twr_ps)
        return data_ready, category


class RefRank:
    def __init__(self, timing, stats, name, trace):
        self.timing = timing
        self.stats = stats
        self.name = name
        self.trace = trace
        self.banks = [RefBank(timing) for _ in range(timing.banks_per_rank)]
        self.recent = deque(maxlen=4)
        self.bus_free_at = 0

    def refresh_gate(self, t):
        trefi, trfc = self.timing.trefi_ps, self.timing.trfc_ps
        if t % trefi >= trefi - trfc:
            return (t // trefi + 1) * trefi
        return t

    def activate_gate(self, t):
        gate = t
        if self.recent:
            gate = max(gate, self.recent[-1] + self.timing.trrd_ps)
        if len(self.recent) == 4:
            gate = max(gate, self.recent[0] + self.timing.tfaw_ps)
        return gate

    def access_line(self, now, bank_id, row, is_write):
        bank = self.banks[bank_id]
        start = self.refresh_gate(now)
        act_gate = self.refresh_gate(self.activate_gate(start))
        data_ready, category = bank.access(start, row, is_write, act_gate)
        if category != "row_hit":
            self.recent.append(bank.activated_at)
            self.stats.add("dram.activates")
        self.stats.add(f"dram.{category}")
        done = max(data_ready, self.bus_free_at) + self.timing.tburst_ps
        self.bus_free_at = done
        kind = "write" if is_write else "read"
        self.stats.add(f"dram.{kind}_bytes", self.timing.burst_bytes)
        if self.trace is not None:
            self.trace.complete(
                "dram", category, f"{self.name}.bank{bank_id}", start, done,
                row=row, kind=kind,
            )
        return done

    def stream(self, now, nbytes, is_write):
        timing = self.timing
        start = self.refresh_gate(now)
        first = start + timing.trcd_ps + timing.tcas_ps
        stream_ps = int(nbytes / (timing.rank_bandwidth_gbps * 0.85) * 1000)
        done = max(first, self.bus_free_at) + stream_ps
        self.bus_free_at = done
        kind = "write" if is_write else "read"
        self.stats.add(f"dram.{kind}_bytes", nbytes)
        self.stats.add("dram.activates", max(1, nbytes // timing.row_bytes))
        if self.trace is not None:
            self.trace.complete(
                "dram", "stream", self.name, start, done, bytes=nbytes, kind=kind
            )
        return done


class RefModule:
    def __init__(self, timing, ranks, trace=None, name="dram"):
        self.stats = StatRegistry()
        self.address_map = AddressMap.for_timing(ranks, timing)
        self.ranks = [
            RefRank(timing, self.stats, f"{name}.rank{i}", trace) for i in range(ranks)
        ]

    def completion_time(self, now, offset, nbytes, is_write):
        if nbytes >= BULK_THRESHOLD:
            per_rank = nbytes // len(self.ranks)
            return max(rank.stream(now, per_rank, is_write) for rank in self.ranks)
        done = 0
        line_start = offset - offset % LINE_BYTES
        while line_start < offset + nbytes:
            loc = self.address_map.decode(line_start)
            done = max(
                done,
                self.ranks[loc.rank].access_line(now, loc.bank, loc.row, is_write),
            )
            line_start += LINE_BYTES
        return done


# -- harness -------------------------------------------------------------------

def replay(timing, ranks, requests, traced):
    """Drive the module and the reference through ``requests``."""
    sim = Simulator()
    stats = StatRegistry()
    if traced:
        sim.trace = TraceRecorder(sim)
    dram = DRAMModule(sim, timing, ranks, stats)
    ref = RefModule(timing, ranks, trace=TraceRecorder(sim) if traced else None)
    for issue_at, offset, nbytes, is_write in requests:
        sim.run(until=issue_at)
        assert sim.now == issue_at
        got = dram.completion_time(offset, nbytes, is_write)
        want = ref.completion_time(issue_at, offset, nbytes, is_write)
        assert got == want, (issue_at, offset, nbytes, is_write)
    for rank, ref_rank in zip(dram.ranks, ref.ranks):
        assert [
            (bank.open_row, bank.ready_at, bank.activated_at) for bank in rank.banks
        ] == [
            (bank.open_row, bank.ready_at, bank.activated_at) for bank in ref_rank.banks
        ]
        assert list(rank._recent_activates) == list(ref_rank.recent)
        assert rank._recent_activates.maxlen == 4
        assert rank._bus_free_at == ref_rank.bus_free_at
    counters = stats.counters()
    assert counters == ref.stats.counters()
    assert all(value != 0 for value in counters.values()), counters
    if traced:
        assert sim.trace.spans == ref.ranks[0].trace.spans
    return dram, stats, sim


T = DDR4_2400_LRDIMM


@st.composite
def request_streams(draw):
    ranks = draw(st.integers(1, 4))
    # rows of one bank sit this far apart, so a few strides give hits,
    # misses and conflicts on the same banks
    row_stride = T.banks_per_rank * ranks * T.row_bytes
    now = 0
    requests = []
    for _ in range(draw(st.integers(1, 24))):
        if draw(st.booleans()):
            now += draw(st.integers(0, 3000))
        else:
            # land inside the refresh window at the end of a tREFI interval,
            # or just before it, so that paced activates spill into it
            interval = now // T.trefi_ps + draw(st.integers(0, 2))
            boundary = (interval + 1) * T.trefi_ps
            now = max(now, boundary - draw(st.integers(1, T.trfc_ps + 50_000)))
        offset = draw(st.integers(0, 3)) * row_stride + draw(st.integers(0, 2 * 4096))
        nbytes = draw(
            st.one_of(
                st.integers(1, BULK_THRESHOLD - 1),
                st.integers(BULK_THRESHOLD, 8 * BULK_THRESHOLD),
            )
        )
        requests.append((now, offset, nbytes, draw(st.booleans())))
    return ranks, requests


@settings(max_examples=150, deadline=None)
@given(stream=request_streams(), traced=st.booleans())
def test_walk_matches_per_line_reference(stream, traced):
    ranks, requests = stream
    replay(T, ranks, requests, traced)


@settings(max_examples=25, deadline=None)
@given(stream=request_streams(), name=st.sampled_from(sorted(presets())))
def test_walk_matches_reference_on_every_preset(stream, name):
    ranks, requests = stream
    replay(presets()[name], ranks, requests, traced=True)


def test_walk_covers_every_category_and_the_bulk_span():
    """A fixed stream with hits, misses, conflicts, writes, a refresh
    stall and a bulk transfer; its spans match the reference."""
    row_stride = T.banks_per_rank * T.row_bytes
    refresh_at = T.trefi_ps - T.trfc_ps
    requests = [
        (0, 0, 64 * 20, False),                 # 20 misses, tFAW-paced
        (100, 64, 128, True),                   # row hits, write recovery
        (200, row_stride + 3, 130, False),      # conflicts, unaligned
        (refresh_at - 1000, 2 * row_stride, 64 * 8, False),  # activates spill into refresh
        (refresh_at + 7, 17, 64, True),         # stalled past refresh
        (refresh_at + 12, 0, 2 * BULK_THRESHOLD, False),
    ]
    dram, stats, sim = replay(T, 1, requests, traced=True)
    names = {span[1] for span in sim.trace.spans}
    assert names == {"row_hit", "row_miss", "row_conflict", "stream"}
    assert stats.get("dram.row_hit") >= 2
    assert stats.get("dram.row_conflict") >= 3
