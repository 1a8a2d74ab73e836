"""Host forwarding controller (FWD Controller, Fig. 6 ❽).

Moves packets from one DIMM's packet buffer to another's through the host.
Following the paper's methodology — "we view the host CPU as a routing
node that takes certain cycles to forward a packet" (Sec. V-B) — the host
is modelled as a pipelined forwarding engine: every forwarded packet pays
a fixed GEM5-profiled latency, while sustained throughput is bounded by
the engine's copy bandwidth and a per-packet processing floor, plus the
source/destination channel buses the data must cross.  The engine is
shared by all forwards, so heavy CPU-forwarded traffic queues — the core
inefficiency of CPU-forwarded IDC (Sec. II-B).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SystemConfig
from repro.host.memchannel import MemoryChannel
from repro.host.polling import PollingStrategy
from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import BandwidthResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns

#: sustained host copy bandwidth for forwarding (memcpy through LLC).
ENGINE_GBPS = 18.0
#: per-packet processing floor (decode DST, manage buffers).
ENGINE_PER_OP_NS = 5.0


class ForwardController:
    """Host-side packet forwarding between DIMMs."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        channels: List[MemoryChannel],
        polling: PollingStrategy,
        stats: StatRegistry,
        engine_gbps: float = ENGINE_GBPS,
    ) -> None:
        self.sim = sim
        self.config = config
        self.channels = channels
        self.polling = polling
        self.stats = stats
        self.engine = BandwidthResource(
            sim,
            bytes_per_ns=engine_gbps,
            latency_ps=ns(config.host.forward_latency_ns),
            name="host.fwd.engine",
        )
        # per-op engine cost in ps, converted once instead of per forward
        self._per_op_ps = ns(ENGINE_PER_OP_NS)

    def forward(
        self,
        src_dimm: int,
        dst_dimm: int,
        wire_bytes: int,
        notice_dimm: Optional[int] = None,
    ) -> SimEvent:
        """Forward ``wire_bytes`` of packets from ``src_dimm`` to ``dst_dimm``.

        ``notice_dimm`` is the DIMM whose request register triggers host
        attention (defaults to the source).  Pass ``notice_dimm=-1`` to skip
        the polling delay — used for response packets the host already
        expects after forwarding the matching request.
        """
        done = SimEvent(self.sim, "host.fwd")
        self.sim.defer(
            self._forward_start,
            _Forward(src_dimm, dst_dimm, wire_bytes, notice_dimm, done),
        )
        return done

    # The forward runs as a callback chain making the pushes of a process
    # that waits for the polling notice, then crosses the source channel,
    # the forwarding engine and the destination channel in turn.

    def _forward_start(self, fwd: "_Forward") -> None:
        fwd.start = self.sim.now
        trace = self.sim.trace
        if trace.enabled:
            fwd.span = trace.begin(
                "host", "forward", "host.fwd",
                src=fwd.src, dst=fwd.dst, bytes=fwd.wire_bytes,
            )
        if fwd.notice_dimm != -1:
            notice = self.polling.notice(
                fwd.src if fwd.notice_dimm is None else fwd.notice_dimm
            )
            self.sim.then(notice, self._forward_read, fwd)
        else:
            self._forward_read(fwd)

    def _forward_read(self, fwd: "_Forward") -> None:
        # read the packet from the source DIMM's packet buffer
        src_channel = self.channels[self.config.channel_of(fwd.src)]
        src_channel.transfer_then(fwd.wire_bytes, "fwd", self._forward_copy, fwd)

    def _forward_copy(self, fwd: "_Forward") -> None:
        # the routing-node engine: per-packet cost + copy bandwidth +
        # the fixed GEM5-profiled forward latency (pipelined)
        self.engine.transfer_then(
            fwd.wire_bytes, self._forward_write, fwd, extra_ps=self._per_op_ps
        )

    def _forward_write(self, fwd: "_Forward") -> None:
        dst_channel = self.channels[self.config.channel_of(fwd.dst)]
        dst_channel.transfer_then(fwd.wire_bytes, "fwd", self._forward_done, fwd)

    def _forward_done(self, fwd: "_Forward") -> None:
        self.stats.add("fwd.ops")
        self.stats.add("fwd.bytes", fwd.wire_bytes)
        self.stats.histogram("fwd.latency_ns").record((self.sim.now - fwd.start) / 1000)
        self.sim.trace.end(fwd.span)
        fwd.done.succeed(fwd.wire_bytes)


class _Forward:
    """One forward in flight through :class:`ForwardController`'s chain."""

    __slots__ = ("src", "dst", "wire_bytes", "notice_dimm", "done", "start", "span")

    def __init__(
        self, src: int, dst: int, wire_bytes: int, notice_dimm: Optional[int],
        done: SimEvent,
    ) -> None:
        self.src = src
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.notice_dimm = notice_dimm
        self.done = done
        self.start = 0
        self.span = None
