"""Per-layer tracing from outside the simulator.

Two instruments, both installed only for a traced run:

* **Spans** around the public calls ``execute_spec`` makes into each
  layer (system runs, workload construction, thread placement, cache
  reads and writes).  The call sites are wrapped by patching the public
  names; nothing inside ``repro`` changes.  Spans stay in memory and are
  written as one JSON file when the run ends.
* **A wall-clock sampler**: ``SIGALRM`` every :data:`INTERVAL_S`
  seconds.  Each sample is charged the wall time since the previous one
  and attributed to the ``repro.<package>`` of the innermost ``repro``
  frame on the stack (stdlib frames such as ``random`` or ``json`` count
  for the repro code that called them).

Pool workers (``jobs > 1``) trace themselves: the first traced spec a
worker executes starts a fresh tracer there, and after each spec the
worker appends its spans and samples to a file in :data:`CHILD_DIR_ENV`,
which the parent merges after the pass.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import signal
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.experiments.common as common_module
import repro.experiments.runner as runner_module
from repro.host.cpu import HostCPUSystem
from repro.nmp.results import RunResult
from repro.nmp.system import NMPSystem
from repro.results_cache import ResultsCache
from repro.workloads.base import Workload

INTERVAL_S = 0.001

#: layers reported by self time; any other ``repro`` module, and stacks
#: with no ``repro`` frame at all, count as ``other``.
LAYERS = (
    "sim.engine",
    "sim.resource",
    "sim.stats",
    "dram",
    "interconnect",
    "core",
    "protocol",
    "host",
    "idc",
    "nmp",
    "workloads",
    "mapping",
    "runner",
    "other",
)

#: packages charged to the ``runner`` layer: sweep execution and cache.
RUNNER_PACKAGES = ("experiments", "results_cache", "fsio")

#: a sample whose innermost frame is in one of these modules is a
#: process blocked on its pool workers, not a layer at work; it is
#: charged to ``idle``, which no layer metric includes.
WAIT_MODULES = frozenset({"threading", "selectors", "multiprocessing.connection"})

#: span names whose interval is simulation (the sampler coverage check).
RUN_SPANS = ("nmp.run", "host.run")

CHILD_DIR_ENV = "PERFBENCH_TRACE_CHILD_DIR"

#: (name, start, end, parent index or -1, pid)
Span = Tuple[str, float, float, int, int]


def layer_of(module: str) -> Optional[str]:
    """The layer a module belongs to, or ``None`` outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    key = ".".join(parts[1:3]) if parts[1] == "sim" else parts[1]
    if key in RUNNER_PACKAGES:
        return "runner"
    return key if key in LAYERS else "other"


class Tracer:
    """Span recorder plus sampler for one process."""

    def __init__(self, worker: bool = False) -> None:
        self.pid = os.getpid()
        #: a pool worker's tracer: samples per spec, records to a file.
        self.worker = worker
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        #: sampled wall time while inside a :data:`RUN_SPANS` span.
        self.in_run_s = 0.0
        self.samples = 0
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._run_depth = 0
        self._active = False
        self._last = 0.0
        self._code_layer: Dict[object, Optional[str]] = {}
        self._previous_handler = None

    # -- sampler -----------------------------------------------------------------------

    def _layer_of_frame(self, frame) -> str:
        if frame is not None and frame.f_globals.get("__name__") in WAIT_MODULES:
            return "idle"
        cache = self._code_layer
        while frame is not None:
            code = frame.f_code
            if code in cache:
                layer = cache[code]
            else:
                layer = cache[code] = layer_of(frame.f_globals.get("__name__", ""))
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _on_alarm(self, signum, frame) -> None:
        now = time.perf_counter()
        if self._active:
            weight = now - self._last
            self.self_s[self._layer_of_frame(frame)] += weight
            if self._run_depth:
                self.in_run_s += weight
            self.samples += 1
        self._last = now

    def start_sampler(self) -> None:
        """Arm the interval timer (main thread only)."""
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Attribute samples to layers while the block runs."""
        self._last = time.perf_counter()
        self._active = True
        try:
            yield
        finally:
            self._active = False

    # -- spans -------------------------------------------------------------------------

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span (only the outermost of a name records)."""
        if self._open[name]:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.pid))
        self._stack.append(index)
        self._open[name] += 1
        is_run = name in RUN_SPANS
        self._run_depth += is_run
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._run_depth -= is_run
            self._open[name] -= 1
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.pid)

    # -- child records -----------------------------------------------------------------

    def drain_record(self) -> Dict[str, object]:
        """Take this process's spans and samples so far (and reset them)."""
        record = {
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "in_run_s": self.in_run_s,
            "samples": self.samples,
        }
        self.spans = []
        self.self_s = defaultdict(float)
        self.in_run_s = 0.0
        self.samples = 0
        return record

    def merge_children(self, directory: Path) -> None:
        """Fold the pool workers' records into this tracer."""
        for path in sorted(directory.glob("child-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                offset = len(self.spans)
                for name, start, end, parent, pid in record["spans"]:
                    parent = parent + offset if parent >= 0 else -1
                    self.spans.append((name, start, end, parent, pid))
                for layer, seconds in record["self_s"].items():
                    self.self_s[layer] += seconds
                self.in_run_s += record["in_run_s"]
                self.samples += record["samples"]
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span as one JSON file."""
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "pid"],
                    "spans": self.spans,
                }
            )
        )


# -- patching the public call sites ---------------------------------------------------

#: the tracer the wrappers report to (``None`` = untraced passthrough).
_current: Optional[Tracer] = None


def _wrap(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _current
        if tracer is None:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _workload_classes() -> List[type]:
    found, todo = [], [Workload]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrapped public call."""
    targets: List[Tuple[object, str, str]] = [
        (NMPSystem, "run", "nmp.run"),
        (HostCPUSystem, "run", "host.run"),
        (ResultsCache, "get", "results_cache.get"),
        (ResultsCache, "put", "results_cache.put"),
        (runner_module, "build_spec_workload", "workloads.build"),
    ]
    targets += [
        (cls, "thread_factories", "workloads.build")
        for cls in _workload_classes()
        if "thread_factories" in vars(cls)
    ]
    for module, names in (
        (
            runner_module,
            (
                "profile_traffic",
                "distance_aware_placement",
                "random_placement",
                "co_optimized_placement",
                "profiled_page_assignment",
            ),
        ),
        (common_module, ("profile_traffic", "distance_aware_placement")),
    ):
        targets += [(module, name, "mapping.place") for name in names]
    return targets


_originals: List[Tuple[object, str, Callable]] = []


def _patch() -> None:
    if _originals:
        return
    for owner, attribute, name in _targets():
        original = vars(owner)[attribute]
        _originals.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(original, name))


def _unpatch() -> None:
    while _originals:
        owner, attribute, original = _originals.pop()
        setattr(owner, attribute, original)


@contextlib.contextmanager
def tracing(tracer: Tracer, child_dir: Path) -> Iterator[Tracer]:
    """Install the wrappers and the sampler for the duration of the block."""
    global _current
    _patch()
    _current = tracer
    os.environ[CHILD_DIR_ENV] = str(child_dir)
    tracer.start_sampler()
    try:
        yield tracer
    finally:
        tracer.stop_sampler()
        os.environ.pop(CHILD_DIR_ENV, None)
        _current = None
        _unpatch()


def traced_execute(spec: runner_module.RunSpec) -> RunResult:
    """``SweepRunner`` execute function for traced passes.

    In the benchmark process it opens a ``runner.execute`` span.  In a
    pool worker it first starts that worker's own tracer, samples only
    while the spec runs, and appends the spec's record for the parent.
    """
    global _current
    tracer = _current
    if tracer is None or tracer.pid != os.getpid():  # first spec in a worker
        _patch()
        tracer = _current = Tracer(worker=True)
        tracer.start_sampler()
    if not tracer.worker:
        return tracer.call("runner.execute", runner_module.execute_spec, (spec,), {})
    with tracer.sampling():
        result = tracer.call("runner.execute", runner_module.execute_spec, (spec,), {})
    path = Path(os.environ[CHILD_DIR_ENV]) / f"child-{tracer.pid}.jsonl"
    with path.open("a") as handle:
        handle.write(json.dumps(tracer.drain_record()) + "\n")
    return result
