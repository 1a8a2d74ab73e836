"""Data link layer: CRC-checked delivery with ACK/retry and credits.

This is the functional model of Fig. 3's DLL: the sender consumes a credit
per packet, transmits the encoded bytes over a (possibly corrupting)
channel, and retransmits on timeout unless an ACK arrives.  The receiver
validates the CRC, delivers good packets exactly once (sequence numbers
filter duplicates), and returns credits on the reverse channel.

The full event-driven system model charges DLL costs as per-packet latency
and uses link credits for backpressure; this module exists to demonstrate
— and test, including with injected bit errors — that the protocol as
specified actually provides reliable, flow-controlled delivery.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, List, Optional

from repro.errors import ProtocolError
from repro.protocol.packet import Packet
from repro.sim.engine import AnyOf, SimEvent, Simulator
from repro.sim.resource import SlotResource
from repro.sim.time import ns


class LossyChannel:
    """A unidirectional byte channel that can corrupt packets in flight."""

    def __init__(
        self,
        sim: Simulator,
        latency_ps: int = ns(10),
        error_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "chan",
    ) -> None:
        if not 0.0 <= error_rate < 1.0:
            raise ProtocolError(f"error rate {error_rate} out of [0, 1)")
        self.sim = sim
        self.latency_ps = latency_ps
        self.error_rate = error_rate
        # default seed derives from the channel name so distinct channels
        # draw decorrelated error patterns while staying reproducible
        # (a shared Random(0) made all same-named defaults corrupt in
        # lockstep)
        self.rng = rng or random.Random(zlib.crc32(name.encode()))
        self.name = name
        self.delivered = 0
        self.corrupted = 0
        self._sink: Optional[Callable[[bytes], None]] = None

    def connect(self, sink: Callable[[bytes], None]) -> None:
        """Attach the receiving endpoint."""
        self._sink = sink

    def send(self, wire: bytes) -> None:
        """Transmit bytes; a bit may be flipped with ``error_rate``."""
        if self._sink is None:
            raise ProtocolError(f"{self.name}: channel has no receiver")
        if self.error_rate and self.rng.random() < self.error_rate:
            index = self.rng.randrange(len(wire))
            wire = wire[:index] + bytes([wire[index] ^ 0x01]) + wire[index + 1 :]
            self.corrupted += 1
            if self.sim.trace.enabled:
                self.sim.trace.instant(
                    "network", "corruption", self.name, byte=index
                )
        else:
            self.delivered += 1
        self.sim.schedule(self.latency_ps, lambda data: self._sink(data), wire)


class DataLinkEndpoint:
    """One side of a DL link: reliable send + receive with credits."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "dll",
        credits: int = 8,
        ack_timeout_ps: int = ns(500),
        max_retries: int = 8,
    ) -> None:
        self.sim = sim
        self.name = name
        self.credits = SlotResource(sim, credits, name=f"{name}.credits")
        self.ack_timeout_ps = ack_timeout_ps
        self.max_retries = max_retries
        self.tx_channel: Optional[LossyChannel] = None
        self.received: List[Packet] = []
        self.retransmissions = 0
        self._next_seq = 0
        self._acks: Dict[int, SimEvent] = {}
        self._delivered_seqs: set = set()
        self._deliver: Optional[Callable[[Packet], None]] = None

    def attach(
        self, tx: LossyChannel, rx: LossyChannel, deliver: Optional[Callable[[Packet], None]] = None
    ) -> None:
        """Wire this endpoint to its transmit and receive channels."""
        self.tx_channel = tx
        rx.connect(self._on_wire)
        self._deliver = deliver

    def send(self, packet: Packet) -> SimEvent:
        """Reliably send ``packet``; the event fires once it is ACKed."""
        done = self.sim.event(name=f"{self.name}.send")
        self.sim.process(self._send_proc(packet, done), name=f"{self.name}.send")
        return done

    def _send_proc(self, packet: Packet, done: SimEvent):
        yield self.credits.acquire()
        packet.seq = self._next_seq
        self._next_seq = (self._next_seq + 1) % 256
        wire = packet.encode()
        trace = self.sim.trace
        span = (
            trace.begin(
                "network", "dll.send", self.name, seq=packet.seq, bytes=len(wire)
            )
            if trace.enabled
            else None
        )
        attempts = 0
        while True:
            if self.tx_channel is None:
                raise ProtocolError(f"{self.name}: endpoint not attached")
            attempts += 1
            ack = self.sim.event(name=f"{self.name}.ack{packet.seq}")
            self._acks[packet.seq] = ack
            self.tx_channel.send(wire)
            result = yield AnyOf(
                [ack, self.sim.timeout(self.ack_timeout_ps, value="timeout")]
            )
            if result != "timeout":
                break
            if attempts > self.max_retries:
                self._acks.pop(packet.seq, None)
                trace.end(span, status="lost", attempts=attempts)
                raise ProtocolError(
                    f"{self.name}: packet seq={packet.seq} lost after "
                    f"{self.max_retries} retries"
                )
            self.retransmissions += 1
            if trace.enabled:
                trace.instant("network", "retry", self.name, seq=packet.seq)
        self.credits.release()
        trace.end(span, status="acked", attempts=attempts)
        done.succeed(packet)

    def _on_wire(self, wire: bytes) -> None:
        # ACK frames are 3 bytes: 0xA5, seq, ~seq (the complement guards
        # against a bit flip acknowledging the wrong sequence number)
        if len(wire) == 3 and wire[0] == 0xA5:
            seq, guard = wire[1], wire[2]
            if guard != (~seq & 0xFF):
                return  # corrupted ACK: drop; the sender's timeout retries
            ack = self._acks.pop(seq, None)
            if ack is not None and not ack.triggered:
                ack.succeed("acked")
            return
        try:
            packet = Packet.decode(wire)
        except ProtocolError:
            # CRC failure: drop silently; the sender's timeout drives retry.
            return
        # ACK even duplicates (their original ACK may have raced the retry)
        if self.tx_channel is not None:
            self.tx_channel.send(bytes([0xA5, packet.seq, ~packet.seq & 0xFF]))
        if packet.seq in self._delivered_seqs:
            return
        self._delivered_seqs.add(packet.seq)
        self.received.append(packet)
        if self._deliver is not None:
            self._deliver(packet)


def make_link_pair(
    sim: Simulator,
    latency_ps: int = ns(10),
    error_rate: float = 0.0,
    credits: int = 8,
    seed: int = 0,
) -> "tuple[DataLinkEndpoint, DataLinkEndpoint]":
    """Two endpoints connected by a full-duplex (possibly lossy) link."""
    rng = random.Random(seed)
    a_to_b = LossyChannel(sim, latency_ps, error_rate, rng, name="a->b")
    b_to_a = LossyChannel(sim, latency_ps, error_rate, rng, name="b->a")
    side_a = DataLinkEndpoint(sim, name="dll.a", credits=credits)
    side_b = DataLinkEndpoint(sim, name="dll.b", credits=credits)
    side_a.attach(tx=a_to_b, rx=b_to_a)
    side_b.attach(tx=b_to_a, rx=a_to_b)
    return side_a, side_b
