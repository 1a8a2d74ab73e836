"""Repo benchmark: how long regenerating the paper's grids takes, and where.

Run from the repository root::

    python3 perfbench/run.py --workload p2p_graph --seed 42 --seconds 24 --trace 0

One run builds the workload's spec grid from ``--seed`` (see
``grids.py``), then repeats, within ``--seconds``:

* **cold passes** — the whole grid through a fresh ``SweepRunner``
  (no results cache; ``sweep_cache`` writes a fresh cache instead);
* **warm replays** — the same grid served from a filled results cache.

Host speed on a shared machine drifts by tens of percent for seconds
to minutes at a time, so every reported time is rescaled by a speed
probe taken next to it (``speed.py``; :meth:`Bench.cold_passes`).

Every pass is checked: its results digest must equal the pinned digest
for this seed (or, for an unpinned seed, the first pass's), warm
results must equal cold ones, and the kernels' arithmetic is checked
against the reference implementations.  Any failure makes the run
print ``"correct": false`` and exit 1.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
cold passes untraced and traced (``layertrace.py``) and reports the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space and trace output (inside the checkout, ignored by git).
OUT = ROOT / ".perfbench"

#: fresh-interpreter set-ups measured per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: shares of ``--seconds`` given to each phase.
COLD_SHARE = 0.85
TRACE_SHARE = 0.8
WARM_SHARE = 0.05
MIN_WARM_REPLAYS = 5
#: largest tolerated gap between sampled in-run time and the run spans.
COVERAGE_TOLERANCE = 0.05

Metrics = Dict[str, Tuple[float, str]]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one set-up in this fresh interpreter and exit",
    )
    return parser.parse_args(argv)


# -- set-up ---------------------------------------------------------------------------


def setup_once(workload: str, seed: int, scratch: Path) -> float:
    """Imports, grid construction, and runner/cache construction, at
    REF_S speed (probe blocks just before and after)."""
    before = speed.probe_block()
    start = time.perf_counter()
    import grids
    from repro.experiments.runner import SweepRunner
    from repro.results_cache import ResultsCache

    grids.grid(workload, seed)
    cache = ResultsCache(scratch / "cache") if workload == "sweep_cache" else None
    SweepRunner(jobs=grids.JOBS[workload], cache=cache, strict=False)
    elapsed = time.perf_counter() - start
    return speed.scaled(elapsed, (before + speed.probe_block()) / 2)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, at REF_S speed."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


# -- passes ---------------------------------------------------------------------------


class Bench:
    """One benchmark run: the grid, its passes, and their checks."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        import grids

        self.grids = grids
        self.workload = workload
        self.scratch = scratch
        self.jobs = grids.JOBS[workload]
        self.specs = grids.grid(workload, seed)
        self.pinned = grids.pinned_digest(workload, seed)
        self.reference: Optional[str] = self.pinned
        self.attempted = 0
        self.failed = 0
        #: distinct failure reasons, each with how often it occurred.
        self.failures: Dict[str, int] = {}
        self.first_results: list = []
        self.cold_misses: List[int] = []
        self.dead_letters = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self._caches = 0

    def fail(self, specs: int, reason: str) -> None:
        self.failed += specs
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def _fresh_cache(self):
        from repro.results_cache import ResultsCache

        self._caches += 1
        return ResultsCache(self.scratch / f"cache-{self._caches}")

    def _check(self, label: str, results: list) -> None:
        """Dead letters and results digest of one pass.

        The first complete pass sets the reference when the seed is not
        pinned; every later pass (traced, warm) must match it.
        """
        missing = sum(1 for r in results if r is None)
        if missing:
            self.fail(missing, f"{label}: {missing} spec(s) dead-lettered")
            return
        digest = self.grids.digest(results)
        if not self.first_results:
            self.first_results = results
            if self.reference is None:
                self.reference = digest
        if digest != self.reference:
            self.fail(
                len(results),
                f"{label}: results digest {digest[:16]} != {self.reference[:16]}",
            )

    def cold_pass(self, execute: Callable) -> Tuple[float, object]:
        """One cold pass; returns (wall seconds, the cold pass's cache)."""
        from repro.experiments.runner import SweepRunner

        cache = self._fresh_cache() if self.workload == "sweep_cache" else None
        runner = SweepRunner(jobs=self.jobs, cache=cache, strict=False, execute=execute)
        gc.collect()
        start = time.perf_counter()
        results = runner.run(self.specs)
        wall = time.perf_counter() - start
        self.attempted += len(self.specs)
        self.dead_letters += len(runner.dead_letters)
        if cache is not None:
            self.cold_misses.append(cache.misses)
        self._check("cold pass", results)
        return wall, cache

    def cold_passes(self, budget_s: float):
        """Cold passes until the next one would overrun ``budget_s``.

        Returns (pass walls, grid time at REF_S speed, last pass's cache).
        Every spec is preceded by a host-speed probe in the process that
        runs it (see ``speed.py``).  With ``jobs=1`` the grid time is the
        sum over specs of each spec's median scaled time, plus the median
        scaled runner overhead (pass wall minus its specs and probes).
        With ``jobs > 1`` specs overlap, so each pass wall (less its
        probes) is scaled by the pass's median probe and the median pass
        is reported.
        """
        probe_dir = self.scratch / "probes"
        probe_dir.mkdir(exist_ok=True)
        os.environ[speed.PROBE_DIR_ENV] = str(probe_dir)
        spec_times: Dict[str, List[float]] = {}
        walls: List[float] = []
        scaled: List[float] = []
        cache = None
        begun = time.perf_counter()
        while not walls or (
            time.perf_counter() - begun + statistics.median(walls) <= budget_s
        ):
            wall, cache = self.cold_pass(speed.probed_execute)
            walls.append(wall)
            records = speed.drain(probe_dir)
            probes = [probe_s for probe_s, _elapsed, _key in records]
            busy = sum(probe_s + elapsed for probe_s, elapsed, _key in records)
            if self.jobs == 1:
                for probe_s, elapsed, key in records:
                    scaled_s = speed.scaled(elapsed, probe_s)
                    spec_times.setdefault(key, []).append(scaled_s)
                rest = wall - busy
            else:
                rest = wall - sum(probes) / self.jobs
            scaled.append(speed.scaled(rest, statistics.median(probes)))
        if self.jobs == 1:
            grid = sum(statistics.median(t) for t in spec_times.values())
            return walls, grid + statistics.median(scaled), cache
        return walls, statistics.median(scaled), cache

    def traced_passes(self, budget_s: float, tracer, child_dir: Path):
        """Alternate plain and traced cold passes within ``budget_s``, so
        both see the same host speed; returns (plain walls, traced walls,
        last traced pass's cache)."""
        import layertrace
        from repro.experiments.runner import execute_spec

        plain: List[float] = []
        traced: List[float] = []
        cache = None
        begun = time.perf_counter()
        while not traced or (
            time.perf_counter() - begun + plain[-1] + traced[-1] <= budget_s
        ):
            plain.append(self.cold_pass(execute_spec)[0])
            with layertrace.tracing(tracer, child_dir), tracer.sampling():
                wall, cache = self.cold_pass(layertrace.traced_execute)
            traced.append(wall)
            tracer.merge_children(child_dir)
        return plain, traced, cache

    def warm_cache(self, cold_cache) -> Path:
        """A cache holding the whole grid (filled from a cold pass)."""
        if cold_cache is not None:
            return cold_cache.cache_dir
        cache = self._fresh_cache()
        for spec, result in zip(self.specs, self.first_results):
            cache.put(spec.cache_key(), result, spec=spec.to_json_dict())
        return cache.cache_dir

    def warm_replays(self, cache_dir: Path, budget_s: float) -> List[float]:
        """Times of replays of the grid from the warm cache, each scaled
        to REF_S speed by a probe just before it."""
        from repro.experiments.runner import SweepRunner
        from repro.results_cache import ResultsCache

        walls: List[float] = []
        begun = time.perf_counter()
        while len(walls) < MIN_WARM_REPLAYS or time.perf_counter() - begun < budget_s:
            cache = ResultsCache(cache_dir)
            runner = SweepRunner(jobs=self.jobs, cache=cache, strict=False)
            gc.collect()
            probe_s = speed.probe()
            start = time.perf_counter()
            results = runner.run(self.specs)
            walls.append(speed.scaled(time.perf_counter() - start, probe_s))
            self.attempted += len(self.specs)
            self.warm_hits += cache.hits
            self.warm_misses += cache.misses
            if runner.misses:
                reason = f"warm replay simulated {runner.misses} spec(s)"
                self.fail(runner.misses, reason)
            self._check("warm replay", results)
        return walls


# -- metrics --------------------------------------------------------------------------


def simulated_counts(results) -> Metrics:
    """Work the simulator did over one pass, summed from RunResult.stats."""

    def total(suffix: str) -> float:
        return sum(r.stats.sum_suffix(suffix) for r in results)

    lines = total("dram.row_hit") + total("dram.row_miss") + total("dram.row_conflict")
    read, write = total("dram.read_bytes"), total("dram.write_bytes")
    metrics: Metrics = {
        "dram.lines": (lines, "count"),
        "dram.activates": (total("dram.activates"), "count"),
        "dram.row_hit_ratio": (total("dram.row_hit") / lines, "ratio"),
        "dram.write_share": (write / (read + write), "ratio"),
    }
    for name, unit in (
        ("dl.packets", "count"),
        ("dl.hops", "count"),
        ("dl.broadcasts", "count"),
        ("fwd.ops", "count"),
        ("bus.bytes", "bytes"),
        ("poll.notices", "count"),
        ("sync.barriers", "count"),
        ("core.mem_ops", "count"),
        ("core.remote_ops", "count"),
    ):
        metrics[name] = (total(name), unit)
    metrics["sim.total_us"] = (sum(r.time_us for r in results), "us")
    return metrics


def quantile(values: List[float], q: int) -> float:
    """The q-th decile (q=5 is the median) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(
    bench: Bench, cold, warm, untraced_walls, traced_walls, warm_walls
) -> Metrics:
    """Per-layer metrics from the traced cold passes and warm replays."""
    from layertrace import LAYERS

    passes = len(traced_walls)
    spans: Dict[str, List[float]] = {}
    for name, start, end, _parent, _pid in cold.spans:
        spans.setdefault(name, []).append(end - start)

    def per_pass(name: str) -> float:
        return sum(spans.get(name, ())) / passes

    metrics: Metrics = {}
    sampled = sum(v for layer, v in cold.self_s.items() if layer in LAYERS)
    for layer in LAYERS:
        seconds = cold.self_s.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = (seconds / passes, "s")
        metrics[f"{layer}.share"] = (seconds / sampled, "ratio")
    counts = simulated_counts(bench.first_results)
    run_s = per_pass("nmp.run") + per_pass("host.run")
    runs = len(spans.get("nmp.run", ())) + len(spans.get("host.run", ()))
    executes = spans.get("runner.execute", [])
    retries = len(executes) - passes * len(bench.specs) + bench.dead_letters
    cold_misses = statistics.fmean(bench.cold_misses) if bench.cold_misses else 0.0
    overhead = statistics.fmean(traced_walls) - sum(executes) / passes / bench.jobs
    gets = [e - s for name, s, e, _p, _pid in warm.spans if name == "results_cache.get"]
    puts = [
        e - s
        for name, s, e, _p, _pid in cold.spans + warm.spans
        if name == "results_cache.put"
    ]
    warm_runs = sum(1 for span in warm.spans if span[0] in ("nmp.run", "host.run"))
    hits, misses = bench.warm_hits, bench.warm_misses
    replays = len(warm_walls)
    metrics.update(
        {
            "dram.host_us_per_line": (
                metrics["dram.self_s"][0] / counts["dram.lines"][0] * 1e6,
                "us",
            ),
            "nmp.run_s": (per_pass("nmp.run"), "s"),
            "host.run_s": (per_pass("host.run"), "s"),
            "sim.runs": (runs / passes, "count"),
            "workloads.build_s": (per_pass("workloads.build"), "s"),
            "mapping.place_s": (per_pass("mapping.place"), "s"),
            "mapping.calls": (len(spans.get("mapping.place", ())) / passes, "count"),
            "runner.overhead_s": (overhead, "s"),
            "runner.overhead_ms_per_spec": (overhead / len(bench.specs) * 1e3, "ms"),
            "runner.spec_s.p50": (quantile(executes, 5), "s"),
            "runner.spec_s.p90": (quantile(executes, 9), "s"),
            "runner.spec_s.samples": (len(executes), "count"),
            "runner.retries": (retries, "count"),
            "runner.dead_letters": (bench.dead_letters, "count"),
            "results_cache.put_ms": (statistics.fmean(puts) * 1e3, "ms"),
            "results_cache.get_ms": (statistics.fmean(gets) * 1e3, "ms"),
            "results_cache.hits": (hits / replays, "count"),
            "results_cache.misses": (cold_misses, "count"),
            "results_cache.hit_ratio": (hits / (hits + misses), "ratio"),
            "warm.sim.runs": (warm_runs / replays, "count"),
            "sim.host_s_per_sim_us": (run_s / counts["sim.total_us"][0], "s/us"),
            "trace.overhead_ratio": (
                statistics.median(t / u for t, u in zip(traced_walls, untraced_walls)),
                "ratio",
            ),
            "trace.samples": (cold.samples / passes, "count"),
            "trace.run_coverage": (cold.in_run_s / passes / run_s, "ratio"),
        }
    )
    metrics.update(counts)
    return metrics


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory; ``sweep_cache`` adds its pool workers' peak."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "sweep_cache":
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024


# -- one run --------------------------------------------------------------------------


def run(args: argparse.Namespace, scratch: Path) -> Tuple[Bench, Metrics, List[str]]:
    """Measure one run; returns the bench, its metrics, and report lines."""
    import layertrace

    bench = Bench(args.workload, args.seed, scratch)
    for failure in bench.grids.check_numerics(args.workload, args.seed):
        bench.fail(1, failure)
    seconds = args.seconds
    report: List[str] = []
    if not args.trace:
        cold_walls, grid_s, cold_cache = bench.cold_passes(COLD_SHARE * seconds)
        warm = bench.warm_replays(bench.warm_cache(cold_cache), WARM_SHARE * seconds)
        rss = peak_rss_mb(args.workload)  # before the set-up probes run
        setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics: Metrics = {
            "grid_s": (grid_s, "s"),
            "warm_grid_s": (statistics.median(warm), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        report.append(
            f"passes: {len(cold_walls)} cold, {len(warm)} warm, {len(setups)} set-ups; "
            f"raw cold pass walls: fastest {min(cold_walls):.4f} s, "
            f"median {statistics.median(cold_walls):.4f} s"
        )
    else:
        cold, warm = layertrace.Tracer(), layertrace.Tracer()
        child_dir = scratch / "children"
        child_dir.mkdir()
        untraced_walls, traced_walls, cold_cache = bench.traced_passes(
            TRACE_SHARE * seconds, cold, child_dir
        )
        with layertrace.tracing(warm, child_dir):
            warm_walls = bench.warm_replays(
                bench.warm_cache(cold_cache), WARM_SHARE * seconds
            )
        metrics = layer_metrics(
            bench, cold, warm, untraced_walls, traced_walls, warm_walls
        )
        coverage = metrics["trace.run_coverage"][0]
        if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
            bench.fail(0, f"sampled in-run time covers {coverage:.3f} of the run spans")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        cold.spans.extend(warm.spans)
        cold.write(trace_file)
        report.append(
            f"passes: {len(untraced_walls)} untraced, {len(traced_walls)} traced, "
            f"{len(warm_walls)} warm; spans -> {trace_file.relative_to(ROOT)}"
        )
    ratios = {}
    if bench.first_results:
        ratios = bench.grids.paper_ratios(
            args.workload, bench.specs, bench.first_results
        )
    for name, value in ratios.items():
        report.append(f"paper {name}: {value:.4f}")
    if ratios:
        report.append(f"paper_err: {bench.grids.paper_err(ratios):.6f} log2")
    report.append(f"fail_ratio: {bench.failed / bench.attempted:.6f} ratio")
    report.append(
        f"digest: {bench.reference} "
        + ("(pinned)" if bench.pinned else "(unpinned at this seed/CODE_VERSION)")
    )
    report += [f"FAILED ({n}x): {reason}" for reason, n in bench.failures.items()]
    return bench, metrics, report


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.setup_probe:  # a probe times its own imports
        import grids

        if args.workload not in grids.WORKLOADS:
            print(
                f"perfbench: unknown workload {args.workload!r}; "
                f"choose from {', '.join(grids.WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.setup_probe:
            setup_s = setup_once(args.workload, args.seed, scratch)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        bench, metrics, report = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    correct = not bench.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
