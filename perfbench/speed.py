"""Host-speed probe: rescales measured times to one fixed host speed.

On a shared machine the speed this process gets drifts by up to ~1.6x,
for seconds to minutes at a time: longer than a pass, often longer than
a whole run, so no best-of-N within a run removes it.  The benchmark
therefore times a short fixed loop next to every measurement and reports
``measured * REF_S / probe``: seconds on a host where the loop takes
:data:`REF_S`.  The loop is the benchmark's own code, so no change to
the simulator can move it.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: events per probe loop (~3.5 ms on an idle host).
PROBE_ITEMS = 4000
#: the probe loop's time on the host the first baseline was taken on.
REF_S = 0.0035
#: probes averaged for one block (before and after a set-up).
BLOCK = 20

#: directory ``probed_execute`` logs to (pool workers inherit it).
PROBE_DIR_ENV = "PERFBENCH_PROBE_DIR"


class _Event:
    __slots__ = ("time", "value")

    def __init__(self, time: int, value: int) -> None:
        self.time = time
        self.value = value


def _loop() -> int:
    """Simulator-shaped work: an event heap, a dict, generator resumes."""

    def process(steps: int):
        for step in range(steps):
            yield step

    heap: list = []
    table: Dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITEMS):
        heapq.heappush(heap, ((i * 2654435761) & 0xFFFF, i, _Event(i, acc)))
        table[i & 4095] = acc
        acc += table.get((i * 7) & 4095, 0) & 0xFFFF
        if i & 1:
            acc ^= heapq.heappop(heap)[2].value & 0xFF
        if i & 31 == 0:
            acc += sum(process(16))
    return acc


def probe() -> float:
    """Seconds for one probe loop, with the cyclic collector paused so
    the benchmark's own live objects cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_block() -> float:
    """Mean of :data:`BLOCK` probes, for measurements longer than one."""
    return statistics.fmean(probe() for _ in range(BLOCK))


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at REF_S speed."""
    return seconds * REF_S / probe_s


def probed_execute(spec):
    """``SweepRunner`` execute function: a probe just before each spec.

    Appends ``probe_s elapsed_s cache_key`` for the spec to a per-process
    file under :data:`PROBE_DIR_ENV`, so pool workers report too.
    """
    from repro.experiments.runner import execute_spec

    probe_s = probe()
    start = time.perf_counter()
    result = execute_spec(spec)
    elapsed = time.perf_counter() - start
    path = Path(os.environ[PROBE_DIR_ENV]) / f"probe-{os.getpid()}.txt"
    with path.open("a") as handle:
        handle.write(f"{probe_s!r} {elapsed!r} {spec.cache_key()}\n")
    return result


def drain(directory: Path) -> List[Tuple[float, float, str]]:
    """Take every (probe_s, elapsed_s, key) logged so far."""
    records = []
    for path in sorted(directory.glob("probe-*.txt")):
        for line in path.read_text().splitlines():
            probe_s, elapsed, key = line.split()
            records.append((float(probe_s), float(elapsed), key))
        path.unlink()
    return records
