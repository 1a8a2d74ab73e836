"""Intra-channel broadcast IDC (ABC-DIMM [76], Table I column 3).

ABC-DIMM exploits the multi-drop structure of a memory channel: a single
host-issued broadcast-read delivers data to every DIMM on the source
channel simultaneously, and a broadcast-write per destination channel
reaches all of that channel's DIMMs at once.  Point-to-point transfers and
inter-channel hops still use CPU forwarding, so this mechanism subclasses
:class:`~repro.idc.cpu_forwarding.CPUForwardingIDC` and overrides only
the broadcast's fan-out: the host notices the request and issues the
broadcast-read exactly as MCN-BC reads the source.
"""

from __future__ import annotations

from repro.idc.base import IDCOp
from repro.idc.cpu_forwarding import CPUForwardingIDC
from repro.sim.engine import SimEvent


class IntraChannelBroadcastIDC(CPUForwardingIDC):
    """ABC-DIMM-style channel-wise broadcast over CPU forwarding."""

    name = "abc"

    def _bc_fan_out(self, op: IDCOp) -> None:
        # the broadcast-read reached the host AND the source channel's
        # other DIMMs simultaneously: they store it, while the host
        # writes it once to every other channel
        config = self.system.config
        src_channel = config.channel_of(op.src)
        branches = []
        for dst in config.dimms_on_channel(src_channel):
            if dst != op.src:
                stored = SimEvent(self.sim, "abc.bc.local")
                branches.append(stored)
                self.sim.defer(
                    self._store_start, IDCOp(op.src, dst, op.offset, op.nbytes, stored)
                )
        for channel in range(config.num_channels):
            if channel != src_channel:
                written = SimEvent(self.sim, "abc.bc.fwd")
                branches.append(written)
                self.sim.defer(
                    self._channel_write_start,
                    IDCOp(op.src, channel, op.offset, op.nbytes, written, wire=op.wire),
                )
        self.sim.all_of(branches, self._bc_done, op)

    def _store_start(self, copy: IDCOp) -> None:
        mc = self.system.dimms[copy.dst].mc
        mc.local_access_then(copy.offset, copy.nbytes, True, self._stored, copy)

    def _stored(self, copy: IDCOp) -> None:
        self.stats.add("idc.channel_bc_bytes", copy.nbytes)
        copy.done.succeed(None)

    def _channel_write_start(self, copy: IDCOp) -> None:
        # the host copies the payload once per destination channel
        self.system.forwarder.engine.transfer_then(copy.wire, self._channel_write, copy)

    def _channel_write(self, copy: IDCOp) -> None:
        # one broadcast-write serves every DIMM of the channel (``dst``
        # is the channel id here)
        channel = self.system.channels[copy.dst]
        channel.transfer_then(copy.wire, "fwd", self._channel_store, copy)

    def _channel_store(self, copy: IDCOp) -> None:
        system = self.system
        dimms = system.config.dimms_on_channel(copy.dst)
        stores = [
            system.dimms[dst].mc.local_access(copy.offset, copy.nbytes, True)
            for dst in dimms
        ]
        self.stats.add("idc.forwarded_bytes", copy.nbytes * len(dimms))
        self.sim.all_of(stores, copy.done.succeed, None)
