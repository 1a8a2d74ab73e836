"""A DRAM module: the memory of one DIMM (all ranks behind its buffer chip).

:meth:`DRAMModule.completion_time` walks a request's cache lines in one
loop over the per-bank and per-rank timeline state of
:mod:`repro.dram.bank`.  It decodes the first line with the
:class:`~repro.dram.address.AddressMap` layout once and steps
bank -> rank -> column -> row with integer carries, counts row
hits/misses/conflicts, activates and bytes in locals, and flushes each
non-zero count to the stats registry once per request.  Requests of at
least :data:`BULK_THRESHOLD` bytes take the rank streaming fast path so
multi-megabyte transfers (Fig. 1's bulk sweep) stay cheap to simulate.
:meth:`DRAMModule.access` (an event) and :meth:`DRAMModule.access_then`
(a continuation, for callback chains) both book through it.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.dram.address import LINE_BYTES, AddressMap
from repro.dram.bank import ROW_CONFLICT, ROW_HIT, ROW_MISS, Rank
from repro.dram.timing import DRAMTiming
from repro.errors import ConfigError, SimulationError
from repro.sim.engine import SimEvent, Simulator
from repro.sim.stats import StatRegistry

#: Requests at or above this size use the per-rank streaming fast path.
BULK_THRESHOLD = 4096


class DRAMModule:
    """All ranks of one DIMM, with a shared address map."""

    def __init__(
        self,
        sim: Simulator,
        timing: DRAMTiming,
        ranks: int,
        stats: StatRegistry,
        name: str = "dram",
    ) -> None:
        if ranks <= 0:
            raise SimulationError(f"{name}: rank count must be positive")
        self.sim = sim
        self.timing = timing
        self.name = name
        self.stats = stats
        self.address_map = AddressMap.for_timing(ranks, timing)
        self.ranks = [Rank(timing, name=f"{name}.rank{i}", sim=sim) for i in range(ranks)]
        self._n_access = f"{name}.access"

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth across ranks (accessed in parallel)."""
        return len(self.ranks) * self.timing.rank_bandwidth_gbps

    def completion_time(self, offset: int, nbytes: int, is_write: bool) -> int:
        """When a request arriving now would complete (advances bank state)."""
        if nbytes <= 0:
            raise SimulationError(f"{self.name}: request size must be positive")
        if offset < 0:
            raise ConfigError(f"negative address offset {offset}")
        now = self.sim.now
        timing = self.timing
        trefi = timing.trefi_ps
        # refresh occupies the last tRFC of every tREFI interval; it gates
        # the whole request alike, since that depends only on ``now``
        refresh_from = trefi - timing.trfc_ps
        start = now if now % trefi < refresh_from else (now // trefi + 1) * trefi
        stats = self.stats
        kind = "write" if is_write else "read"
        ranks = self.ranks
        if nbytes >= BULK_THRESHOLD:
            per_rank = nbytes // len(ranks)
            done = 0
            for rank in ranks:
                done = max(done, rank.stream(start, per_rank, is_write))
            stats.add(f"dram.{kind}_bytes", per_rank * len(ranks))
            stats.add("dram.activates", max(1, per_rank // timing.row_bytes) * len(ranks))
            return done

        tcas, trcd, tburst = timing.tcas_ps, timing.trcd_ps, timing.tburst_ps
        trp, tras, twr = timing.trp_ps, timing.tras_ps, timing.twr_ps
        trrd, tfaw = timing.trrd_ps, timing.tfaw_ps
        trace = self.sim.trace
        traced = trace.enabled

        amap = self.address_map
        num_banks, num_ranks, lines_per_row = amap.banks_per_rank, len(ranks), amap.lines_per_row
        lines = (offset + nbytes - 1) // LINE_BYTES - offset // LINE_BYTES + 1
        # decode the first line; the loop steps to the next with carries
        r, b, row, column = amap.decode(offset)

        hits = misses = conflicts = 0
        done = 0
        rank = ranks[r]
        banks, recent, bus_free = rank.banks, rank._recent_activates, rank._bus_free_at
        for _ in range(lines):
            bank = banks[b]
            bank_start = bank.ready_at if bank.ready_at > start else start
            open_row = bank.open_row
            if open_row == row:
                hits += 1
                category = ROW_HIT
                data_ready = bank_start + tcas
                ready_at = bank_start + tburst
            else:
                # the tRRD/tFAW/refresh activate gate, needed only to activate
                gate = start
                if recent:
                    if recent[-1] + trrd > gate:
                        gate = recent[-1] + trrd
                    if len(recent) == 4 and recent[0] + tfaw > gate:
                        gate = recent[0] + tfaw
                if gate % trefi >= refresh_from:
                    gate = (gate // trefi + 1) * trefi
                if open_row is None:
                    misses += 1
                    category = ROW_MISS
                    act_at = bank_start if bank_start > gate else gate
                else:
                    conflicts += 1
                    category = ROW_CONFLICT
                    pre_at = bank.activated_at + tras
                    if bank_start > pre_at:
                        pre_at = bank_start
                    act_at = pre_at + trp if pre_at + trp > gate else gate
                data_ready = act_at + trcd + tcas
                ready_at = act_at + trcd + tburst
                bank.open_row = row
                bank.activated_at = act_at
                recent.append(act_at)
            if is_write and data_ready + twr > ready_at:
                # write recovery keeps the bank busy after the burst
                ready_at = data_ready + twr
            bank.ready_at = ready_at
            # serialise the burst on the rank's shared data bus
            bus_free = (data_ready if data_ready > bus_free else bus_free) + tburst
            if bus_free > done:
                done = bus_free
            if traced:
                trace.complete(
                    "dram", category, f"{rank.name}.bank{b}", start, bus_free,
                    row=row, kind=kind,
                )
            b += 1
            if b == num_banks:
                b = 0
                rank._bus_free_at = bus_free
                r += 1
                if r == num_ranks:
                    r = 0
                    column += 1
                    if column == lines_per_row:
                        column = 0
                        row += 1
                rank = ranks[r]
                banks, recent, bus_free = rank.banks, rank._recent_activates, rank._bus_free_at
        rank._bus_free_at = bus_free

        if misses or conflicts:
            stats.add("dram.activates", misses + conflicts)
        if hits:
            stats.add("dram.row_hit", hits)
        if misses:
            stats.add("dram.row_miss", misses)
        if conflicts:
            stats.add("dram.row_conflict", conflicts)
        stats.add(f"dram.{kind}_bytes", lines * timing.burst_bytes)
        return done

    def access(self, offset: int, nbytes: int, is_write: bool) -> SimEvent:
        """Issue a request; the returned event fires at completion."""
        event = SimEvent(self.sim, self._n_access)
        self.sim.at(self.completion_time(offset, nbytes, is_write), event.succeed, nbytes)
        return event

    def access_then(
        self, offset: int, nbytes: int, is_write: bool,
        callback: Callable[[Any], None], arg: Any = None,
    ) -> None:
        """:meth:`access`, continuing with ``callback(arg)`` (no event)."""
        self.sim.then_at(self.completion_time(offset, nbytes, is_write), callback, arg)

    def precharge_all(self) -> None:
        """Close all rows (mode switches between HA and NA, Sec. III-E)."""
        for rank in self.ranks:
            rank.precharge_all()
