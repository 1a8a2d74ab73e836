"""Spawn-free request paths: chains, not processes, and still diagnosable.

The straight-line request paths (local memory controller, host forwarding,
host memory requests, packet routing, the MCN/AIM operations, barrier
arrivals and releases) run as callback chains.  These tests check that no
such path spawns a :class:`~repro.sim.engine.Process` on the golden tiny
specs, and that a thread blocked on a chain-served request is still named,
with the request event it waits on, by both stall diagnostics.
"""

import fnmatch
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.errors import DeadlockError, SimStallError
from repro.experiments.runner import execute_spec
from repro.nmp.dimm import DIMM
from repro.sim import Simulator, StallWatchdog, StatRegistry, engine
from repro.workloads.ops import Read
from tests.test_golden_results import GOLDEN_RESULTS

#: process names no converted path may spawn.
CHAIN_NAMES = (
    "dimm*.mc",
    "host.fwd",
    "cpu.mem",
    "*.route",
    "mcn.read",
    "mcn.write",
    "mcn.msg",
    "mcn.bc*",
    "aim.read",
    "aim.write",
    "aim.msg",
    "aim.bc*",
    "abc.bc*",
    "grp*.bc*",
    "sync.arrive.*",
    "sync.release.*",
)


def spawned_processes(spec, monkeypatch):
    """Names of every process started while ``spec`` runs, with counts."""
    names = Counter()
    start = engine.Process.__init__

    def counting(self, sim, gen, name=""):
        start(self, sim, gen, name)
        names[self.name] += 1

    monkeypatch.setattr(engine.Process, "__init__", counting)
    execute_spec(spec)
    return names


@pytest.mark.parametrize("label", ["mcn", "aim", "cpu", "dimm_link"])
def test_converted_paths_spawn_no_process(label, monkeypatch):
    spec, _digest = GOLDEN_RESULTS[label]
    names = spawned_processes(spec, monkeypatch)
    # the wrapper sees the threads, which stay processes
    assert any(fnmatch.fnmatch(name, "*.core*.t*") for name in names)
    chained = {
        name: count
        for name, count in names.items()
        if any(fnmatch.fnmatch(name, pattern) for pattern in CHAIN_NAMES)
    }
    assert chained == {}


class _StuckIDC:
    """An IDC mechanism whose remote reads are never served."""

    def __init__(self, sim):
        self.sim = sim

    def remote_read(self, src_dimm, dst_dimm, offset, nbytes):
        return self.sim.event("stuck.read")


def _thread_blocked_on_a_remote_read():
    """An NMP core thread whose one remote read is never served: the
    thread drains on it, and the local MC's request chain waits on the
    IDC event forever."""
    sim = Simulator()
    dimm = DIMM(sim, 0, SystemConfig.named("4D-2C"), StatRegistry())
    idc = _StuckIDC(sim)
    dimm.mc.bind_idc(idc)
    core = dimm.cores[0]
    core.bind(idc, None)
    core.run_thread(0, [Read(dimm=1, offset=0, nbytes=64)])
    return sim


#: how the blocked thread is reported: by its name and its request event.
BLOCKED_THREAD = ("dimm0.core0.t0", "AllOf(1 children; pending: event 'dimm0.mc')")


def test_deadlock_names_the_thread_and_its_chain_served_request():
    sim = _thread_blocked_on_a_remote_read()
    with pytest.raises(DeadlockError) as excinfo:
        sim.run(watchdog=StallWatchdog(detect_deadlock=True))
    # the request chain is not a process, so the thread is all there is
    assert excinfo.value.blocked == [BLOCKED_THREAD]


def test_stall_snapshot_names_the_thread_and_its_chain_served_request():
    sim = _thread_blocked_on_a_remote_read()

    def spin():
        while True:
            yield 1

    sim.process(spin(), name="spinner")
    watchdog = StallWatchdog(wall_clock_limit_s=0.05, check_interval_events=64)
    with pytest.raises(SimStallError) as excinfo:
        sim.run(watchdog=watchdog)
    assert excinfo.value.snapshot["blocked"] == [BLOCKED_THREAD, ("spinner", "delay 1ps")]
