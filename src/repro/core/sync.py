"""Inter-DIMM synchronization (Sec. III-D "Support for Synchronization").

Message-passing barriers over the system's IDC transport, in two flavours:

* ``central`` — every thread's arrival is reported to one master DIMM,
  which then notifies every participating DIMM on release.  This is what
  the baselines (and DIMM-Link-Central in Fig. 14) do.
* ``hierarchical`` — arrivals aggregate locally (a master core per DIMM),
  then per DL group (a master DIMM at the middle of the group), and
  finally across groups (a global master), with releases cascading back
  down.  This is DIMM-Link-Hier, and it cuts both message count and the
  number of host-forwarded (inter-group) messages.

The cost of each message is whatever the bound IDC mechanism charges, so
the same manager exercises MCN (host-forwarded sync), AIM (bus sync), and
DIMM-Link (DL packets) faithfully.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro.config import SystemConfig
from repro.errors import ConfigError, SimulationError
from repro.idc.base import IDCMechanism
from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns

#: payload of one synchronization message (fits a single flit packet).
SYNC_MSG_BYTES = 8
#: intra-DIMM aggregation latency (core -> master core, on-chip).
LOCAL_SYNC_PS = ns(20.0)
#: serialized processing time a master core spends per sync message it
#: receives or issues (the SynCron-style master bottleneck that makes
#: centralized synchronization scale poorly, Fig. 14).
MASTER_PROC_PS = ns(50.0)

SYNC_MODES = ("central", "hierarchical")


class _Generation:
    """Per-barrier-generation state."""

    def __init__(self) -> None:
        self.waiters: Dict[int, List[SimEvent]] = defaultdict(list)  # dimm -> events
        self.dimm_arrivals: Counter = Counter()
        self.arrived_threads = 0
        self.group_arrivals: Counter = Counter()
        self.released = False


#: an arrival in flight: (generation state, the thread's home DIMM).
Arrival = Tuple[_Generation, int]
#: a release in flight: (generation state, DIMM or group, releasing DIMM).
Release = Tuple[_Generation, int, int]


class SyncManager:
    """Barrier service for one kernel run."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        idc: IDCMechanism,
        stats: StatRegistry,
        mode: str = "hierarchical",
    ) -> None:
        if mode not in SYNC_MODES:
            raise ConfigError(f"unknown sync mode {mode!r}; choose from {SYNC_MODES}")
        self.sim = sim
        self.config = config
        self.idc = idc
        self.stats = stats
        self.mode = mode
        self.global_master = config.master_dimm(0)
        self._thread_homes: List[int] = []
        self._threads_per_dimm: Counter = Counter()
        self._dimms_per_group: Counter = Counter()
        self._generations: Dict[int, _Generation] = {}
        self._thread_counts: Dict[int, int] = {}
        self._master_cores: Dict[int, BandwidthResource] = {}

    def set_participants(self, thread_homes: List[int]) -> None:
        """Declare the run's threads as (thread index -> home DIMM)."""
        if not thread_homes:
            raise ConfigError("a barrier needs at least one participant")
        self._thread_homes = list(thread_homes)
        self._threads_per_dimm = Counter(thread_homes)
        self._dimms_per_group = Counter(
            self.config.group_of(d) for d in self._threads_per_dimm
        )
        self._generations.clear()
        self._thread_counts = {t: 0 for t in range(len(thread_homes))}

    @property
    def total_threads(self) -> int:
        """Participant count."""
        return len(self._thread_homes)

    def barrier(self, thread_id: int) -> SimEvent:
        """Enter the barrier; the event fires when this thread is released."""
        if thread_id not in self._thread_counts:
            raise SimulationError(f"unknown barrier participant {thread_id}")
        generation = self._thread_counts[thread_id]
        self._thread_counts[thread_id] += 1
        state = self._generations.setdefault(generation, _Generation())
        home = self._thread_homes[thread_id]
        event = self.sim.event(name=f"barrier.g{generation}.t{thread_id}")
        state.waiters[home].append(event)
        self.sim.defer(self._arrive, (state, home))
        return event

    # Arrivals and releases run as callback chains that push what a
    # process per arrival or release would (see the repro.sim.engine
    # docstring): ``arrival`` is ``(generation state, home DIMM)`` and
    # ``release`` is ``(generation state, target, via)``.

    def _master_core(self, dimm: int) -> BandwidthResource:
        """The serializing master core of a DIMM (SynCron-style)."""
        core = self._master_cores.get(dimm)
        if core is None:
            core = BandwidthResource(
                self.sim, bytes_per_ns=1.0, name=f"sync.master{dimm}"
            )
            self._master_cores[dimm] = core
        return core

    # -- arrival paths ------------------------------------------------------------

    def _arrive(self, arrival: Arrival) -> None:
        # report to the DIMM's master core
        if self.mode == "central":
            self.sim.schedule(LOCAL_SYNC_PS, self._central_arrival, arrival)
        else:
            self.sim.schedule(LOCAL_SYNC_PS, self._hier_arrival, arrival)

    def _central_arrival(self, arrival: Arrival) -> None:
        home = arrival[1]
        if home == self.global_master:
            self._global_master_handles(arrival)
            return
        self.stats.add("sync.messages")
        sent = self.idc.message(home, self.global_master, SYNC_MSG_BYTES)
        self.sim.then(sent, self._global_master_handles, arrival)

    def _hier_arrival(self, arrival: Arrival) -> None:
        state, home = arrival
        state.dimm_arrivals[home] += 1
        if state.dimm_arrivals[home] != self._threads_per_dimm[home]:
            return
        # last thread of this DIMM: notify the group master
        group_master = self.config.master_dimm(self.config.group_of(home))
        if home == group_master:
            self._group_master_handles(arrival)
            return
        self.stats.add("sync.messages")
        sent = self.idc.message(home, group_master, SYNC_MSG_BYTES)
        self.sim.then(sent, self._group_master_handles, arrival)

    def _group_master_handles(self, arrival: Arrival) -> None:
        group_master = self.config.master_dimm(self.config.group_of(arrival[1]))
        self._master_core(group_master).occupy_then(
            MASTER_PROC_PS, self._group_arrival, arrival
        )

    def _group_arrival(self, arrival: Arrival) -> None:
        state, home = arrival
        group = self.config.group_of(home)
        state.group_arrivals[group] += 1
        if state.group_arrivals[group] != self._dimms_per_group[group]:
            return
        # last DIMM of the group: notify the global master
        group_master = self.config.master_dimm(group)
        if group_master == self.global_master:
            self._global_arrival(arrival)
            return
        self.stats.add("sync.messages")
        self.stats.add("sync.inter_group_messages")
        sent = self.idc.message(group_master, self.global_master, SYNC_MSG_BYTES)
        self.sim.then(sent, self._global_master_handles, arrival)

    def _global_master_handles(self, arrival: Arrival) -> None:
        # the master core handles every arrival serially
        self._master_core(self.global_master).occupy_then(
            MASTER_PROC_PS, self._global_arrival, arrival
        )

    def _global_arrival(self, arrival: Arrival) -> None:
        """One arrival reached the global master: a thread in central
        mode, a whole group in hierarchical mode."""
        state = arrival[0]
        state.arrived_threads += 1
        if self.mode == "central":
            if state.arrived_threads == self.total_threads:
                self._release_central(state)
        elif state.arrived_threads == len(self._dimms_per_group):
            self._release_hier(state)

    # -- release paths --------------------------------------------------------------

    def _release_central(self, state: _Generation) -> None:
        state.released = True
        self.stats.add("sync.barriers")
        for dimm in state.waiters:
            self.sim.defer(self._release_dimm, (state, dimm, self.global_master))

    def _release_hier(self, state: _Generation) -> None:
        state.released = True
        self.stats.add("sync.barriers")
        for group, _count in self._dimms_per_group.items():
            group_master = self.config.master_dimm(group)
            self.sim.defer(self._release_group, (state, group, group_master))

    def _release_group(self, release: Release) -> None:
        group_master = release[2]
        if group_master == self.global_master:
            self._release_group_dimms(release)
            return
        self.stats.add("sync.messages")
        self.stats.add("sync.inter_group_messages")
        self._master_core(self.global_master).occupy_then(
            MASTER_PROC_PS, self._release_group_master, release
        )

    def _release_group_master(self, release: Release) -> None:
        # the host just forwarded the arrival, so it expects the release
        sent = self.idc.message(
            self.global_master, release[2], SYNC_MSG_BYTES, expected=True
        )
        self.sim.then(sent, self._release_group_dimms, release)

    def _release_group_dimms(self, release: Release) -> None:
        state, group, group_master = release
        for dimm in state.waiters:
            if self.config.group_of(dimm) == group:
                self.sim.defer(self._release_dimm, (state, dimm, group_master))

    def _release_dimm(self, release: Release) -> None:
        dimm, via = release[1], release[2]
        if dimm == via:
            self._release_local(release)
            return
        self.stats.add("sync.messages")
        self._master_core(via).occupy_then(
            MASTER_PROC_PS, self._release_dimm_message, release
        )

    def _release_dimm_message(self, release: Release) -> None:
        sent = self.idc.message(release[2], release[1], SYNC_MSG_BYTES, expected=True)
        self.sim.then(sent, self._release_local, release)

    def _release_local(self, release: Release) -> None:
        # the master core releases the DIMM's local threads
        self.sim.schedule(LOCAL_SYNC_PS, self._release_threads, release)

    def _release_threads(self, release: Release) -> None:
        state, dimm = release[0], release[1]
        for event in state.waiters[dimm]:
            event.succeed(None)
