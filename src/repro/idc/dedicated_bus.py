"""Dedicated-bus IDC (AIM [11], Table I column 4).

All DIMMs share one extra multi-drop bus; NMP cores transfer data on it
without host involvement.  The bus's bandwidth matches a memory channel
(Sec. V-B), so per-DIMM bandwidth shrinks as β / #DIMM under contention —
the unscalability the paper highlights.  Broadcast is a single bus
transfer that every DIMM snoops (AIM-BC in Fig. 12).

Every operation runs as a callback chain that pushes what a process per
operation would (see the :mod:`repro.sim.engine` docstring).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.idc.base import IDCMechanism, IDCOp
from repro.protocol.packet import FLIT_BYTES, wire_bytes_for_transfer
from repro.sim.engine import SimEvent
from repro.sim.resource import BandwidthResource
from repro.sim.time import ns

#: wire size of a snooped command packet.
CONTROL_WIRE_BYTES = FLIT_BYTES


class DedicatedBusIDC(IDCMechanism):
    """AIM-style dedicated inter-DIMM bus."""

    name = "aim"

    def attach(self, system) -> None:
        super().attach(system)
        self.sim = system.sim
        self.stats = system.stats
        channel = system.config.channel
        self.bus = BandwidthResource(
            system.sim,
            bytes_per_ns=channel.bandwidth_gbps,
            latency_ps=ns(channel.bus_latency_ns),
            name="aim.bus",
        )

    def _bus_transfer(
        self, wire_bytes: int, callback: Callable[[Any], None], arg: Any
    ) -> None:
        self.stats.add("idc.dedicated_bus_bytes", wire_bytes)
        self.bus.transfer_then(wire_bytes, callback, arg)

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "aim.read")
        self.sim.defer(self._read_start, IDCOp(src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _read_start(self, op: IDCOp) -> None:
        # the read command is broadcast; the owner snoops and replies
        self._bus_transfer(CONTROL_WIRE_BYTES, self._read_access, op)

    def _read_access(self, op: IDCOp) -> None:
        mc = self.system.dimms[op.dst].mc
        mc.local_access_then(op.offset, op.nbytes, False, self._read_reply, op)

    def _read_reply(self, op: IDCOp) -> None:
        self._bus_transfer(wire_bytes_for_transfer(op.nbytes), self._carried, op)

    def _carried(self, op: IDCOp) -> None:
        self.stats.add("idc.bus_payload_bytes", op.nbytes)
        op.done.succeed(op.nbytes)

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "aim.write")
        self.sim.defer(self._write_start, IDCOp(src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _write_start(self, op: IDCOp) -> None:
        self._bus_transfer(wire_bytes_for_transfer(op.nbytes), self._write_store, op)

    def _write_store(self, op: IDCOp) -> None:
        mc = self.system.dimms[op.dst].mc
        mc.local_access_then(op.offset, op.nbytes, True, self._carried, op)

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        """AIM-BC: one bus transfer reaches every snooping DIMM."""
        self._require_system()
        done = SimEvent(self.sim, "aim.bc")
        self.sim.defer(self._bc_start, IDCOp(src_dimm, -1, offset, nbytes, done))
        return done

    def _bc_start(self, op: IDCOp) -> None:
        self._bus_transfer(wire_bytes_for_transfer(op.nbytes), self._bc_store, op)

    def _bc_store(self, op: IDCOp) -> None:
        system = self.system
        writes = [
            system.dimms[dst].mc.local_access(op.offset, op.nbytes, True)
            for dst in range(system.config.num_dimms)
            if dst != op.src
        ]
        self.stats.add(
            "idc.bus_payload_bytes", op.nbytes * (system.config.num_dimms - 1)
        )
        self.sim.all_of(writes, self._bc_done, op)

    def _bc_done(self, op: IDCOp) -> None:
        self.stats.add("idc.broadcast_ops")
        op.done.succeed(op.nbytes)

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        done = SimEvent(self.sim, "aim.msg")
        self.sim.defer(self._message_start, IDCOp(src_dimm, dst_dimm, 0, nbytes, done))
        return done

    def _message_start(self, op: IDCOp) -> None:
        self._bus_transfer(CONTROL_WIRE_BYTES, self._message_done, op)

    def _message_done(self, op: IDCOp) -> None:
        self.stats.add("idc.messages")
        op.done.succeed(op.nbytes)
