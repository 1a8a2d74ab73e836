"""Structured trace recording for simulation runs.

A :class:`TraceRecorder` collects *spans* (durations with a start and end
in simulated picoseconds), *instants* (point events), and feeds windowed
samplers (:mod:`repro.trace.sampler`) from the simulator event loop.  The
default on every :class:`~repro.sim.engine.Simulator` is the shared
:data:`NULL_RECORDER`, whose methods are all no-ops and whose
``enabled`` flag is ``False`` — instrumentation sites guard their work
with ``if trace.enabled`` so untraced runs pay only an attribute check.

Span taxonomy (the ``cat`` field):

* ``network`` — packet lifecycles on the DL bridge and the data-link
  protocol model (route spans, per-hop retries, DLL sends),
* ``dram`` — command issue at the module and rank layers,
* ``host`` — forwarding-engine spans and polling notices,
* ``nmp`` — thread execution, barrier and broadcast stalls,
* ``idc`` — remote read/write/broadcast operations as seen by the
  mechanism layer.

Spans within one ``group`` (a track in the viewer, e.g. one core or one
link) are lane-allocated: concurrent spans in the same group get distinct
lanes so exported Chrome traces render without false nesting.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: default cap on recorded events; recording stops (and counts drops)
#: beyond it so a runaway traced run cannot exhaust memory.
DEFAULT_MAX_EVENTS = 2_000_000


class Span:
    """An open span handle returned by :meth:`TraceRecorder.begin`."""

    __slots__ = ("cat", "name", "group", "lane", "start_ps", "args")

    def __init__(
        self,
        cat: str,
        name: str,
        group: str,
        lane: int,
        start_ps: int,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self.cat = cat
        self.name = name
        self.group = group
        self.lane = lane
        self.start_ps = start_ps
        self.args = args


class NullRecorder:
    """Zero-overhead default: every method is a no-op.

    Hot paths check :attr:`enabled` before building span arguments, so a
    simulation without tracing does no extra allocation.
    """

    enabled = False

    def begin(self, cat: str, name: str, group: str, **args: Any) -> Optional[Span]:
        return None

    def end(self, span: Optional[Span], **args: Any) -> None:
        pass

    def complete(
        self, cat: str, name: str, group: str, start_ps: int, end_ps: int, **args: Any
    ) -> None:
        pass

    def instant(self, cat: str, name: str, group: str = "", **args: Any) -> None:
        pass

    def on_time_advance(self, now_ps: int) -> None:
        pass

    def finalize(self) -> None:
        pass


#: the process-wide no-op recorder every Simulator starts with.
NULL_RECORDER = NullRecorder()


class TraceRecorder(NullRecorder):
    """Records spans/instants against a simulator's clock."""

    enabled = True

    def __init__(self, sim: Any, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.sim = sim
        self.max_events = max_events
        #: finished spans: (cat, name, group, lane, start_ps, end_ps, args).
        self.spans: List[Tuple[str, str, str, int, int, int, Optional[dict]]] = []
        #: instants: (cat, name, group, ts_ps, args).
        self.instants: List[Tuple[str, str, str, int, Optional[dict]]] = []
        #: events discarded after :attr:`max_events` was reached.
        self.dropped = 0
        self._samplers: List[Any] = []
        self._lanes: Dict[str, List[bool]] = {}

    # -- spans -----------------------------------------------------------------

    def _alloc_lane(self, group: str) -> int:
        lanes = self._lanes.setdefault(group, [])
        for index, busy in enumerate(lanes):
            if not busy:
                lanes[index] = True
                return index
        lanes.append(True)
        return len(lanes) - 1

    def begin(self, cat: str, name: str, group: str, **args: Any) -> Optional[Span]:
        """Open a span starting now; close it with :meth:`end`."""
        return Span(cat, name, group, self._alloc_lane(group), self.sim.now, args or None)

    def end(self, span: Optional[Span], **args: Any) -> None:
        """Close a span at the current time (extra args are merged in)."""
        if span is None:
            return
        self._lanes[span.group][span.lane] = False
        if len(self.spans) >= self.max_events:
            self.dropped += 1
            return
        merged = span.args
        if args:
            merged = dict(merged or ())
            merged.update(args)
        self.spans.append(
            (span.cat, span.name, span.group, span.lane, span.start_ps, self.sim.now, merged)
        )

    def complete(
        self, cat: str, name: str, group: str, start_ps: int, end_ps: int, **args: Any
    ) -> None:
        """Record a span whose start/end are already known.

        Used by timeline-arithmetic components (the DRAM model computes
        completion times analytically rather than sleeping through them).
        """
        if len(self.spans) >= self.max_events:
            self.dropped += 1
            return
        self.spans.append((cat, name, group, 0, start_ps, end_ps, args or None))

    def instant(self, cat: str, name: str, group: str = "", **args: Any) -> None:
        """Record a point event at the current time."""
        if len(self.instants) >= self.max_events:
            self.dropped += 1
            return
        self.instants.append((cat, name, group, self.sim.now, args or None))

    # -- event-loop hook -------------------------------------------------------

    def add_sampler(self, sampler: Any) -> None:
        """Attach a windowed sampler driven by simulated-time advances."""
        self._samplers.append(sampler)

    @property
    def samplers(self) -> List[Any]:
        return list(self._samplers)

    def on_time_advance(self, now_ps: int) -> None:
        """Called by the event loop whenever simulated time moves forward."""
        for sampler in self._samplers:
            sampler.on_time_advance(now_ps)

    def finalize(self) -> None:
        """Flush samplers' partial final windows (call once after ``run``)."""
        for sampler in self._samplers:
            sampler.finalize(self.sim.now)

    # -- introspection ---------------------------------------------------------

    def categories(self) -> List[str]:
        """Sorted distinct span/instant categories recorded so far."""
        cats = {record[0] for record in self.spans}
        cats.update(record[0] for record in self.instants)
        return sorted(cats)

    def __repr__(self) -> str:
        return (
            f"TraceRecorder({len(self.spans)} spans, {len(self.instants)} "
            f"instants, dropped={self.dropped})"
        )
