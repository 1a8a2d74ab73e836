"""Local memory controller of an NMP DIMM (Fig. 6 ❶-❹).

NMP cores submit memory requests here.  The controller buffers them in a
bounded transaction buffer, decodes the target DIMM, and arbitrates: local
requests go to the DIMM's DRAM through the local DDR interface; remote
requests are handed to the system's IDC mechanism via the DL interface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Tuple

from repro.sim.engine import SimEvent, Simulator
from repro.sim.resource import SlotResource
from repro.sim.stats import StatRegistry
from repro.sim.time import ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.module import DRAMModule
    from repro.idc.base import IDCMechanism

#: arbitration + address-decode latency per request.
ARBITER_LATENCY_PS = ns(3.0)
#: transaction-buffer entries per DIMM (Fig. 6 ❶).
TRANSACTION_BUFFER_ENTRIES = 64

#: one in-flight request: (target DIMM, offset, bytes, is_write, done).
Request = Tuple[int, int, int, bool, SimEvent]


class LocalMemoryController:
    """Per-DIMM request arbiter between local DRAM and the IDC path."""

    def __init__(
        self,
        sim: Simulator,
        dimm_id: int,
        dram: "DRAMModule",
        stats: StatRegistry,
    ) -> None:
        self.sim = sim
        self.dimm_id = dimm_id
        self.dram = dram
        self.stats = stats
        self.idc: "IDCMechanism | None" = None
        self.buffer = SlotResource(
            sim, TRANSACTION_BUFFER_ENTRIES, name=f"dimm{dimm_id}.txnbuf"
        )
        self._n_request = f"dimm{dimm_id}.mc"

    def bind_idc(self, idc: "IDCMechanism") -> None:
        """Connect the DL interface to the system's IDC mechanism."""
        self.idc = idc

    def submit(
        self, target_dimm: int, offset: int, nbytes: int, is_write: bool
    ) -> SimEvent:
        """Submit one request; the event fires on completion.

        The request runs as a callback chain — take a transaction-buffer
        entry, arbitrate, serve locally or through the IDC mechanism,
        free the entry — pushing what a process doing the same would.
        """
        done = SimEvent(self.sim, self._n_request)
        self.sim.defer(self._serve, (target_dimm, offset, nbytes, is_write, done))
        return done

    def _serve(self, request: Request) -> None:
        self.buffer.acquire_then(self._arbitrate, request)

    def _arbitrate(self, request: Request) -> None:
        self.sim.schedule(ARBITER_LATENCY_PS, self._issue, request)

    def _issue(self, request: Request) -> None:
        target_dimm, offset, nbytes, is_write, _done = request
        if target_dimm == self.dimm_id:
            self.stats.add("idc.local_bytes", nbytes)
            self.dram.access_then(offset, nbytes, is_write, self._complete, request)
            return
        if self.idc is None:
            raise RuntimeError(
                f"dimm{self.dimm_id}: remote request without an IDC mechanism"
            )
        if is_write:
            served = self.idc.remote_write(self.dimm_id, target_dimm, offset, nbytes)
        else:
            served = self.idc.remote_read(self.dimm_id, target_dimm, offset, nbytes)
        self.sim.then(served, self._complete, request)

    def _complete(self, request: Request) -> None:
        self.buffer.release()
        request[4].succeed(request[2])

    def local_access(self, offset: int, nbytes: int, is_write: bool) -> SimEvent:
        """Direct local DRAM access (used by the IDC receive path)."""
        return self._served_locally(nbytes).access(offset, nbytes, is_write)

    def local_access_then(
        self, offset: int, nbytes: int, is_write: bool,
        callback: Callable[[Any], None], arg: Any = None,
    ) -> None:
        """:meth:`local_access`, continuing with ``callback(arg)`` (no event)."""
        self._served_locally(nbytes).access_then(offset, nbytes, is_write, callback, arg)

    def _served_locally(self, nbytes: int) -> "DRAMModule":
        self.stats.add("idc.remote_served_bytes", nbytes)
        return self.dram
