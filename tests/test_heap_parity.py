"""Heap parity: the event kernel's push/pop sequence, pinned per golden spec.

Every spec of :data:`tests.test_golden_results.GOLDEN_RESULTS` runs under a
stand-in for the ``heapq`` module that :mod:`repro.sim.engine` pushes and
pops through.  The stand-in counts pushes and pops and hashes the
``(time, seq)`` pair of every pushed entry, in push order.

Same-timestamp events fire in push order, so a kernel or model refactor
that keeps these pins schedules every event at the same time and with the
same sequence number as before: byte-identical results then follow from
the code, not from luck.  A refactor that replaces a generator process by
a callback chain must make exactly the pushes the process made (its start
deferral, one push per delay, one deferral per event wait).
"""

import hashlib
import heapq

import pytest

from repro.experiments.runner import execute_spec
from repro.sim import engine
from tests.test_golden_results import GOLDEN_RESULTS

#: label -> (heap pushes, heap pops, sha256 of the pushed (time, seq) pairs).
HEAP_PINS = {
    "abc": (
        1134, 1134,
        "dcd507217a42ed6d4bb55c10d7833e6ee828727e535d11ce5540471357bc4027",
    ),
    "aim": (
        2202, 2202,
        "6f8a63caff1f910f7f940efba3378b4b38b1c94bc2c42885eb4316179a22f346",
    ),
    "apsp_abc": (
        1008, 1008,
        "e8d37bc3cae0e425816af0f4ba84bfa5c9b62ac653979eb73b0ce95881479186",
    ),
    "apsp_cpu": (
        210, 210,
        "d9f7ef82ac6876a578ac6d3b7ca949a0a9e927792dd32b3519517b23d98f041e",
    ),
    "apsp_dimm_link": (
        1002, 1002,
        "91426d2f9bdbb38a8942aacca4d201479f0f6bda7bc9a873cd25970c21a3a105",
    ),
    "apsp_opt": (
        1002, 1002,
        "91426d2f9bdbb38a8942aacca4d201479f0f6bda7bc9a873cd25970c21a3a105",
    ),
    "cpu": (
        1430, 1430,
        "659c339506dadf48a5ecbf4048803b1e23329538368e51db83cbd24f30565afa",
    ),
    "dimm_link": (
        3618, 3618,
        "c4694bdcbeb2aad3dbd44e96c7cefd3a38d79b038cd70ad9ef5e2e64d1eed610",
    ),
    "dl_opt": (
        3618, 3618,
        "c4694bdcbeb2aad3dbd44e96c7cefd3a38d79b038cd70ad9ef5e2e64d1eed610",
    ),
    "dlrm_cpu": (
        1202, 1202,
        "bdb214519d9c874a6d38e4bfe5acd30ca75e11e280bf35f147a39de247963c2b",
    ),
    "dlrm_dimm_link": (
        3446, 3446,
        "970383948953755a144363d7eaa527ebe6cede06b92ea137adca4a726b84c240",
    ),
    "dlrm_mcn": (
        3458, 3458,
        "47d9295f0c596f9eb01d4f5ba61cfa95acb767788cdd04088c04eebf102f6d86",
    ),
    "dlrm_opt": (
        3446, 3446,
        "970383948953755a144363d7eaa527ebe6cede06b92ea137adca4a726b84c240",
    ),
    "faulted": (
        13771, 13771,
        "a1580b5525ccbe9df8f0df0444d3133a27e6d20b8556faa34b82097fd8539dce",
    ),
    "mcn": (
        3630, 3630,
        "c8a0d3a6929742345592f5f36d6e231b70272c0c7b5a0b86295f4c5466d36278",
    ),
}


class _HeapRecorder:
    """Drop-in for the ``heapq`` functions the engine calls."""

    def __init__(self):
        self.pushes = 0
        self.pops = 0
        self._digest = hashlib.sha256()

    def heappush(self, heap, entry):
        self.pushes += 1
        self._digest.update(f"{entry[0]},{entry[1]};".encode())
        heapq.heappush(heap, entry)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)

    def pins(self):
        return self.pushes, self.pops, self._digest.hexdigest()


def heap_pins(spec, monkeypatch):
    recorder = _HeapRecorder()
    monkeypatch.setattr(engine, "heapq", recorder)
    execute_spec(spec)
    return recorder.pins()


def test_every_golden_spec_has_heap_pins():
    assert set(HEAP_PINS) == set(GOLDEN_RESULTS)


@pytest.mark.parametrize("label", sorted(GOLDEN_RESULTS))
def test_heap_push_sequence_is_pinned(label, monkeypatch):
    spec, _digest = GOLDEN_RESULTS[label]
    assert heap_pins(spec, monkeypatch) == HEAP_PINS[label]
