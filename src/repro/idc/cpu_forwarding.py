"""CPU-forwarding IDC (MCN [3] / UPMEM [32], Table I column 2).

Every inter-DIMM transfer goes through the host: the requesting DIMM
registers a request in a memory-mapped register, the host's polling loop
notices it, reads the packet over the source channel, and writes it over
the destination channel.  Reads additionally pay the return trip for the
data.  ``MCN-BC`` (Fig. 12's baseline) emulates broadcast with one host
read plus a per-destination write.

Reads, writes, messages and broadcasts run as callback chains that push
what a process per operation would (see the :mod:`repro.sim.engine`
docstring).
"""

from __future__ import annotations

from repro.idc.base import IDCMechanism, IDCOp
from repro.protocol.packet import FLIT_BYTES, wire_bytes_for_transfer
from repro.sim.engine import SimEvent
from repro.sim.time import ns

#: wire size of a request/notification packet.
CONTROL_WIRE_BYTES = FLIT_BYTES


class CPUForwardingIDC(IDCMechanism):
    """MCN-style host-forwarded inter-DIMM communication."""

    name = "mcn"

    def attach(self, system) -> None:
        super().attach(system)
        self.sim = system.sim
        self.stats = system.stats
        self._forward_latency_ps = ns(system.config.host.forward_latency_ns)
        self._n_bc = f"{self.name}.bc"

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "mcn.read")
        self.sim.defer(self._read_start, IDCOp(src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _read_start(self, op: IDCOp) -> None:
        request = self.system.forwarder.forward(op.src, op.dst, CONTROL_WIRE_BYTES)
        self.sim.then(request, self._read_access, op)

    def _read_access(self, op: IDCOp) -> None:
        mc = self.system.dimms[op.dst].mc
        mc.local_access_then(op.offset, op.nbytes, False, self._read_reply, op)

    def _read_reply(self, op: IDCOp) -> None:
        reply = self.system.forwarder.forward(
            op.dst, op.src, wire_bytes_for_transfer(op.nbytes), notice_dimm=-1
        )
        self.sim.then(reply, self._forwarded, op)

    def _forwarded(self, op: IDCOp) -> None:
        self.stats.add("idc.forwarded_bytes", op.nbytes)
        op.done.succeed(op.nbytes)

    def remote_write(self, src_dimm, dst_dimm, offset, nbytes) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "mcn.write")
        self.sim.defer(self._write_start, IDCOp(src_dimm, dst_dimm, offset, nbytes, done))
        return done

    def _write_start(self, op: IDCOp) -> None:
        request = self.system.forwarder.forward(
            op.src, op.dst, wire_bytes_for_transfer(op.nbytes)
        )
        self.sim.then(request, self._write_store, op)

    def _write_store(self, op: IDCOp) -> None:
        mc = self.system.dimms[op.dst].mc
        mc.local_access_then(op.offset, op.nbytes, True, self._forwarded, op)

    def broadcast(self, src_dimm, offset, nbytes) -> SimEvent:
        """MCN-BC: one host read, then one write per destination DIMM."""
        self._require_system()
        done = SimEvent(self.sim, self._n_bc)
        wire = wire_bytes_for_transfer(nbytes)
        self.sim.defer(
            self._bc_start, IDCOp(src_dimm, -1, offset, nbytes, done, wire=wire)
        )
        return done

    def _bc_start(self, op: IDCOp) -> None:
        # the host notices the request, reads the payload over the
        # source channel once, and pays its forwarding latency
        self.sim.then(self.system.polling.notice(op.src), self._bc_read, op)

    def _bc_read(self, op: IDCOp) -> None:
        system = self.system
        src_channel = system.channels[system.config.channel_of(op.src)]
        src_channel.transfer_then(op.wire, "fwd", self._bc_copy, op)

    def _bc_copy(self, op: IDCOp) -> None:
        self.sim.schedule(self._forward_latency_ps, self._bc_fan_out, op)

    def _bc_fan_out(self, op: IDCOp) -> None:
        delivered = []
        for dst in range(self.system.config.num_dimms):
            if dst != op.src:
                landed = SimEvent(self.sim, "mcn.bc.deliver")
                delivered.append(landed)
                self.sim.defer(
                    self._deliver_start,
                    IDCOp(op.src, dst, op.offset, op.nbytes, landed, wire=op.wire),
                )
        self.sim.all_of(delivered, self._bc_done, op)

    def _bc_done(self, op: IDCOp) -> None:
        self.stats.add("idc.broadcast_ops")
        op.done.succeed(op.nbytes)

    def _deliver_start(self, copy: IDCOp) -> None:
        # every per-DIMM copy consumes the host forwarding engine
        self.system.forwarder.engine.transfer_then(copy.wire, self._deliver_write, copy)

    def _deliver_write(self, copy: IDCOp) -> None:
        system = self.system
        channel = system.channels[system.config.channel_of(copy.dst)]
        channel.transfer_then(copy.wire, "fwd", self._deliver_store, copy)

    def _deliver_store(self, copy: IDCOp) -> None:
        mc = self.system.dimms[copy.dst].mc
        mc.local_access_then(copy.offset, copy.nbytes, True, self._delivered, copy)

    def _delivered(self, copy: IDCOp) -> None:
        self.stats.add("idc.forwarded_bytes", copy.nbytes)
        copy.done.succeed(None)

    def message(self, src_dimm, dst_dimm, nbytes, expected: bool = False) -> SimEvent:
        self._require_system()
        done = SimEvent(self.sim, "mcn.msg")
        self.sim.defer(
            self._message_start,
            IDCOp(src_dimm, dst_dimm, 0, nbytes, done, expected=expected),
        )
        return done

    def _message_start(self, op: IDCOp) -> None:
        sent = self.system.forwarder.forward(
            op.src,
            op.dst,
            CONTROL_WIRE_BYTES,
            notice_dimm=-1 if op.expected else None,
        )
        self.sim.then(sent, self._message_done, op)

    def _message_done(self, op: IDCOp) -> None:
        self.stats.add("idc.messages")
        op.done.succeed(op.nbytes)
