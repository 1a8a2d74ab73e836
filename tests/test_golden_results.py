"""Golden result bytes: the referee for every engine refactor.

Each spec's :class:`RunResult` is serialized exactly as the results cache
stores it (``json.dumps(to_json_dict(), sort_keys=True)``) and its SHA-256
is pinned.  So is one traced run's span/instant/sampler stream.  A
refactor of the event kernel, the DRAM timeline or the interconnect must
leave every digest here unchanged; the cache-key goldens only pin what a
spec *asks for*, these pin what it *produces*.

If a digest changes on purpose (a modelling fix), bump
:data:`repro.results_cache.CODE_VERSION` and repin in the same change.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import RunSpec, execute_spec
from repro.experiments.trace_run import run_traced

#: one tiny spec per mechanism plus the special corners (CPU baseline,
#: DL-opt flow, fault injection), and the dlrm/apsp suites' mechanisms.
GOLDEN_RESULTS = {
    "cpu": (
        RunSpec(
            config="4D-2C", workload="pagerank", size="tiny",
            kind="cpu", mechanism="cpu",
        ),
        "c36380afec3de849ba7f420df3e22e5e2b83eb4c14c3490707521c5aae1e9b13",
    ),
    "mcn": (
        RunSpec(config="4D-2C", workload="pagerank", size="tiny", mechanism="mcn"),
        "3f9fc365b4507024bcd8c510214dda19ff2a7e21b652c4708dae1d93b43f0d8b",
    ),
    "aim": (
        RunSpec(config="4D-2C", workload="pagerank", size="tiny", mechanism="aim"),
        "d6e5852a7ec31fd8e0942cce3e2dcb22ad98b4d95eed2b7b4ccec9a390518487",
    ),
    "abc": (
        RunSpec(config="4D-2C", workload="spmv_bc", size="tiny", mechanism="abc"),
        "789ce158c8400e31a6049204791943b8e54e941e21ba6f32234b236a2de3fb54",
    ),
    "dimm_link": (
        RunSpec(
            config="4D-2C", workload="pagerank", size="tiny", mechanism="dimm_link"
        ),
        "0fc3c64545946362c6d6da5bb6f364b1d456ab3d7323a08711ee3371a333a9fb",
    ),
    "dl_opt": (
        RunSpec(config="4D-2C", workload="pagerank", size="tiny", kind="optimized"),
        "567c1f5c16b64577c3a764c8cdfe332bbb34f1ea3ae93ac1c7b52e76e4dc4839",
    ),
    "faulted": (
        RunSpec(
            config="8D-4C", workload="uniform_random", size="tiny", seed=11,
            mechanism="dimm_link", fault_fraction=0.67,
        ),
        "d82c95ec12aefd6afb6ef1ba0084a394f5feaa479b60e14d92bbbff3788f002d",
    ),
    "dlrm_cpu": (
        RunSpec(
            config="4D-2C", workload="dlrm", size="tiny",
            kind="cpu", mechanism="cpu", params="batch_size=4",
        ),
        "1903120555f6badded97758ff44c607923209d1ce9286a06eb9f33cea61d9782",
    ),
    "dlrm_mcn": (
        RunSpec(
            config="4D-2C", workload="dlrm", size="tiny",
            kind="nmp", mechanism="mcn", params="batch_size=4",
        ),
        "1827bc930e97fa9f0843aa7f84be918f2be44a7d1e33971544fbd6aef0bef7aa",
    ),
    "dlrm_dimm_link": (
        RunSpec(
            config="4D-2C", workload="dlrm", size="tiny",
            kind="nmp", mechanism="dimm_link", params="batch_size=4",
        ),
        "6c4df8834d83a57140a75f4f9f6e49c9e7fd601dc20d3b8a43e94aa08338d225",
    ),
    "dlrm_opt": (
        RunSpec(
            config="4D-2C", workload="dlrm", size="tiny",
            kind="optimized", mechanism="dimm_link", params="batch_size=4",
        ),
        "b880dbd2cd1dc955c67bcb64edb5e47ddd711f931d8c700a8756ff13d169a20a",
    ),
    "apsp_cpu": (
        RunSpec(
            config="4D-2C", workload="apsp", size="tiny",
            kind="cpu", mechanism="cpu", params="block=12,n=24",
        ),
        "c8dceab626c9be1d010eb24dbb1debedb394bbaae7a15d96450eba0e96db67fe",
    ),
    "apsp_abc": (
        RunSpec(
            config="4D-2C", workload="apsp", size="tiny",
            kind="nmp", mechanism="abc", params="block=12,n=24",
        ),
        "c2f62fb47826d010b4b6efb6c7c60f3c8c764b5f679d45e8ac7446301d2adb5e",
    ),
    "apsp_dimm_link": (
        RunSpec(
            config="4D-2C", workload="apsp", size="tiny",
            kind="nmp", mechanism="dimm_link", params="block=12,n=24",
        ),
        "768fe80fa65b4b990df51e8d5a67315ab15d6e942d4e5f7ecff0af7585907ace",
    ),
    "apsp_opt": (
        RunSpec(
            config="4D-2C", workload="apsp", size="tiny",
            kind="optimized", mechanism="dimm_link", params="block=12,n=24",
        ),
        "a0bed23302db5357c841d2e131827f4c6b524ae4862bffc6e49d415075827b1c",
    ),
}

#: digest of ``run_traced("table1", size="tiny")``: spans, instants, drop
#: count, sampler windows and widths, and the run's final time.
GOLDEN_TRACE = (
    "930afc9b8a789df7d7ad090385b6f0a59173cbbb814dd6f993d92bdd07eb0d70"
)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(spec):
    return sha256(json.dumps(execute_spec(spec).to_json_dict(), sort_keys=True))


def trace_digest(experiment):
    traced = run_traced(experiment, size="tiny")
    recorder = traced["recorder"]
    sampler = traced["sampler"]
    stream = {
        "spans": recorder.spans,
        "instants": recorder.instants,
        "dropped": recorder.dropped,
        "samples": sampler.samples,
        "widths": sampler.widths,
        "time_ps": traced["result"].time_ps,
    }
    return sha256(json.dumps(stream, sort_keys=True))


@pytest.mark.parametrize("label", sorted(GOLDEN_RESULTS))
def test_result_bytes_are_pinned(label):
    spec, expected = GOLDEN_RESULTS[label]
    assert result_digest(spec) == expected


def test_trace_stream_is_pinned():
    assert trace_digest("table1") == GOLDEN_TRACE
