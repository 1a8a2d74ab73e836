"""Self-tests of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

They check the benchmark's own machinery, not the simulator: metric
names, the digest gate, how the seed reaches the program, and that the
sampler covers the simulation it attributes.  Exit status 0 = all pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import grids  # noqa: E402
import layertrace  # noqa: E402
import run as bench_run  # noqa: E402
from repro.experiments.runner import RunSpec, execute_spec  # noqa: E402
from repro.nmp.results import RunResult  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: a spec small enough to simulate in well under a second.
TINY_SPEC = RunSpec(
    config="4D-2C", workload="uniform_random", size="tiny", mechanism="mcn"
)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def short_run(trace: int) -> tuple:
    """One real run of ``sweep_cache`` on a four-spec slice of its grid."""
    full_grid = grids.grid
    grids.grid = lambda workload, seed: full_grid(workload, seed)[:4]
    scratch = bench_run.OUT / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    args = argparse.Namespace(workload="sweep_cache", seed=5, seconds=0.5, trace=trace)
    try:
        return bench_run.run(args, scratch)
    finally:
        grids.grid = full_grid
        shutil.rmtree(scratch, ignore_errors=True)


def test_metric_names() -> None:
    spec = declared()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad, f"malformed names: {bad}"
    assert len(names) == len(set(names)), "a name is used twice"
    assert [w["name"] for w in spec["workloads"]] == list(grids.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        bench, metrics, _report = short_run(trace)
        assert bench.failed == 0, bench.failures
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: unit for name, (_value, unit) in metrics.items()}
        assert got == want, f"trace={trace}: {set(got) ^ set(want)} or units differ"


def test_digest_trips_on_perturbed_counter() -> None:
    result = execute_spec(TINY_SPEC)
    clean = grids.digest([result])
    perturbed = RunResult.from_json_dict(result.to_json_dict())
    counters = perturbed.stats.counters()
    counter = next(key for key in counters if key.endswith("dram.activates"))
    perturbed.stats.add(counter, 1)
    assert grids.digest([perturbed]) != clean
    bench = bench_run.Bench("sweep_cache", 5, bench_run.OUT)
    bench.reference = clean
    bench.first_results = [result]
    bench._check("perturbed", [perturbed])
    assert bench.failed == 1 and bench.failures, "the gate let a changed counter pass"


def test_seed_reaches_program_only_through_runspec_seed() -> None:
    for workload in grids.WORKLOADS:
        first, second = grids.grid(workload, 11), grids.grid(workload, 12)
        assert first == grids.grid(workload, 11), f"{workload}: grid not repeatable"
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.seed != b.seed, f"{workload}: seed not substituted"
            assert dataclasses.replace(a, seed=0) == dataclasses.replace(b, seed=0), (
                f"{workload}: the seed changed a field other than RunSpec.seed"
            )


def test_sampler_covers_run_span() -> None:
    tracer = layertrace.Tracer()
    child_dir = bench_run.OUT / "selftest-children"
    child_dir.mkdir(parents=True, exist_ok=True)
    try:
        with layertrace.tracing(tracer, child_dir), tracer.sampling():
            start = time.perf_counter()
            layertrace.traced_execute(TINY_SPEC)
            layertrace.traced_execute(
                dataclasses.replace(TINY_SPEC, mechanism="dimm_link")
            )
            wall = time.perf_counter() - start
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    run_s = sum(
        e - s for name, s, e, _p, _pid in tracer.spans if name in layertrace.RUN_SPANS
    )
    assert tracer.samples > 50, f"only {tracer.samples} samples"
    assert abs(tracer.in_run_s / run_s - 1) < 0.05, (tracer.in_run_s, run_s)
    assert abs(sum(tracer.self_s.values()) / wall - 1) < 0.05
    assert set(tracer.self_s) <= set(layertrace.LAYERS) | {"idle"}


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
