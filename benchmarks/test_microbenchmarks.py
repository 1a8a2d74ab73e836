"""Correctness checks on the substrates the figures are built from.

Each test drives one substrate (event kernel, DRAM model, packet codec,
CRC, min-cost max-flow placement, one whole-stack run) and asserts its
result.  Timing lives in ``perfbench/``, which measures these layers
inside the figure grids they serve.
"""

import zlib

import numpy as np

from repro.config import SystemConfig
from repro.dram.module import DRAMModule
from repro.dram.timing import DDR4_2400_LRDIMM
from repro.mapping.placement import distance_aware_placement
from repro.protocol.crc import crc32
from repro.protocol.packet import Command, Packet
from repro.sim import Simulator, StatRegistry


def test_engine_event_rate():
    """The simulation kernel drains 16 self-rescheduling event chains."""
    sim = Simulator()

    def ping(_):
        if sim.now < 1_000_000:
            sim.schedule(10, ping)

    for _ in range(16):
        sim.schedule(0, ping)
    sim.run()
    assert sim.now == 1_000_000


def test_dram_line_access_rate():
    """Per-line DRAM model (bank FSM + refresh + bus arithmetic) completes."""
    sim = Simulator()
    dram = DRAMModule(sim, DDR4_2400_LRDIMM, 2, StatRegistry())
    for line in range(2000):
        dram.access(line * 64, 64, is_write=False)
    sim.run()
    assert sim.now > 0


def test_packet_codec_throughput():
    """Encode+decode of a max-payload packet round-trips."""
    packet = Packet(src=1, dst=2, cmd=Command.WRITE_REQ, payload=b"\xab" * 256)
    decoded = Packet.decode(packet.encode())
    assert decoded.payload == packet.payload


def test_crc32_throughput():
    """From-scratch CRC-32 over a 4 KiB buffer matches zlib."""
    data = bytes(range(256)) * 16
    assert crc32(data) == zlib.crc32(data)


def test_mcmf_placement_speed():
    """Algorithm 1 at paper scale: 64 threads x 16 DIMMs, 4 threads per DIMM."""
    rng = np.random.default_rng(42)
    traffic = rng.integers(0, 1 << 20, size=(64, 16)).astype(float)
    config = SystemConfig.named("16D-8C")

    placement = distance_aware_placement(traffic, config)
    assert len(placement) == 64
    assert max(placement.count(d) for d in range(16)) <= 4


def test_end_to_end_kernel_rate():
    """Whole-stack simulation: one tiny PageRank on DIMM-Link."""
    from repro.experiments.common import build_workload, run_nmp

    workload = build_workload("pagerank", "tiny")
    assert run_nmp(SystemConfig.named("8D-4C"), workload, "dimm_link").time_ps > 0
