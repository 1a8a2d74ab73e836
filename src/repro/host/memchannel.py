"""Host memory channel model.

A DDR4 channel is a multi-drop bus time-shared by the host and every DIMM
on the channel.  All host<->DIMM traffic — baseline CPU memory access,
CPU-forwarded IDC packets, polling reads, ABC-DIMM broadcast commands —
serialises on the channel's :class:`~repro.sim.resource.BandwidthResource`,
whose busy accounting yields the paper's "memory bus occupation" metric
(Fig. 15-(b)).
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.config import ChannelConfig
from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns


class MemoryChannel:
    """One host memory channel and the DIMM ids it serves."""

    def __init__(
        self,
        sim: Simulator,
        channel_id: int,
        dimm_ids: List[int],
        config: ChannelConfig,
        stats: StatRegistry,
    ) -> None:
        self.sim = sim
        self.channel_id = channel_id
        self.dimm_ids = list(dimm_ids)
        self.config = config
        self.stats = stats
        self.bus = BandwidthResource(
            sim,
            bytes_per_ns=config.bandwidth_gbps,
            latency_ps=ns(config.bus_latency_ns),
            name=f"ch{channel_id}.bus",
        )
        # per-kind stat keys, interned once — transfer() runs per beat
        self._kind_keys = {"data": "bus.data_bytes"}

    def transfer(self, nbytes: int, kind: str = "data") -> SimEvent:
        """Move ``nbytes`` over the channel (host<->any DIMM on it)."""
        self._account(nbytes, kind)
        return self.bus.transfer(nbytes)

    def transfer_then(
        self, nbytes: int, kind: str, callback: Callable[[Any], None], arg: Any = None
    ) -> None:
        """:meth:`transfer`, continuing with ``callback(arg)`` (no event)."""
        self._account(nbytes, kind)
        self.bus.transfer_then(nbytes, callback, arg)

    def _account(self, nbytes: int, kind: str) -> None:
        key = self._kind_keys.get(kind)
        if key is None:
            key = self._kind_keys[kind] = f"bus.{kind}_bytes"
        self.stats.add(key, nbytes)
        self.stats.add("bus.bytes", nbytes)

    def occupancy(self) -> float:
        """Busy fraction of this channel's bus (incl. background polling)."""
        return self.bus.occupancy()

    def set_polling_load(self, fraction: float) -> None:
        """Account a constant polling occupancy on this channel."""
        self.bus.set_background_load(fraction)

    def __repr__(self) -> str:
        return f"MemoryChannel({self.channel_id}, dimms={self.dimm_ids})"
