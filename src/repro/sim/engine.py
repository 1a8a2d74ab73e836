"""Discrete-event simulation engine.

A deliberately small SimPy-style kernel: a binary-heap event queue over
integer picosecond timestamps, plus generator-based *processes*.  A process
is a Python generator that yields one of:

* an ``int`` — sleep for that many picoseconds,
* a :class:`SimEvent` — suspend until the event succeeds; the event's value
  is sent back into the generator,
* a :class:`Process` — suspend until that process finishes,
* :class:`AllOf` — suspend until every listed event/process has finished,
* :class:`AnyOf` — suspend until the first listed event/process fires.

Events can also *fail* (:meth:`SimEvent.fail`): the exception is thrown
into every waiting process at its ``yield``, so ordinary ``try/except``
implements failover across processes.  A process whose generator raises
fails its ``done`` event when someone is waiting on it, and propagates the
exception out of :meth:`Simulator.run` otherwise (failures are never
silent).  :meth:`Process.interrupt` cancels a pending wait by throwing an
exception into the process at the current time.

The kernel is single-threaded and deterministic: one binary heap of
``(time, seq, callback, arg)`` entries, popped one event at a time, so
events scheduled at the same timestamp fire in scheduling order.

Continuations
-------------

A straight-line request path (acquire a slot, wait a fixed delay, cross a
medium, fire a completion event) does not need a generator.  It can run as
a *callback chain* that makes the same heap pushes, in the same order, as
the process it replaces, so every ``(time, seq)`` pair and every result
byte stay the same:

* :meth:`Simulator.defer` is the push a process start (or any same-time
  resumption) makes;
* :meth:`Simulator.schedule` / :meth:`Simulator.at` are the push an
  integer ``yield`` makes;
* :meth:`Simulator.then` is what an event wait pushes: nothing until the
  event fires, then one :meth:`defer` of ``callback(arg)``.  A failed
  event raises its exception out of :meth:`Simulator.run`, as an
  unobserved process's exception does;
* :meth:`Simulator.all_of` is the :class:`AllOf` wait: one deferral once
  every event has fired, or one per failure (the first one wins);
* :meth:`Simulator.then_at` is an event wait on an event scheduled to
  succeed at an absolute time — the completion push plus the waiter's
  deferral — without the event.

The resources build their event-free *continuation forms* on
:meth:`~Simulator.then_at` and :meth:`~Simulator.defer`:
``BandwidthResource.transfer_then`` / ``occupy_then``,
``SlotResource.acquire_then``, ``DRAMModule.access_then``,
``MemoryChannel.transfer_then`` and
``LocalMemoryController.local_access_then``.  Each shares its
reservation routine with the event-returning form, so the two cannot
drift apart.  A chain is not a
:class:`Process`: it has no ``done`` event and never shows up in
:meth:`Simulator.blocked_processes`.  Its requester does, named with the
request event it waits on.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, SimStallError, SimulationError
from repro.trace.recorder import NULL_RECORDER

ProcessGen = Generator[Any, Any, Any]

#: sentinel bound for the run loop: an int compares smaller than +inf, so
#: "no limit" needs no per-event None check.
_NO_BOUND = float("inf")

class StallWatchdog:
    """No-progress detector consulted by :meth:`Simulator.run`.

    Two independent checks, both optional:

    * **Wall-clock budget** — ``wall_clock_limit_s`` starts a monotonic
      deadline *at construction time*, so one watchdog bounds a whole
      spec execution even when it spans several ``run()`` calls.  The
      loop samples the clock every ``check_interval_events`` events and
      raises :class:`~repro.errors.SimStallError` with a diagnostic
      snapshot (simulated time, event count, queue depth, blocked
      processes) once the budget is spent.
    * **Deadlock on drain** — with ``detect_deadlock`` set, a queue that
      empties while processes are still suspended raises a structured
      :class:`~repro.errors.DeadlockError` naming every waiting process
      and what it waits on.  Off by default: simulations may legitimately
      finish with service loops parked on events that never fire.

    Install process-wide with :func:`install_watchdog` (how the sweep
    harness arms per-spec budgets without threading a handle through
    every layer) or pass one directly to ``Simulator.run``.
    """

    __slots__ = (
        "wall_clock_limit_s",
        "detect_deadlock",
        "check_interval_events",
        "deadline",
    )

    def __init__(
        self,
        wall_clock_limit_s: Optional[float] = None,
        detect_deadlock: bool = False,
        check_interval_events: int = 4096,
    ) -> None:
        if wall_clock_limit_s is not None and wall_clock_limit_s <= 0:
            raise SimulationError(
                f"wall_clock_limit_s must be positive, got {wall_clock_limit_s}"
            )
        self.wall_clock_limit_s = wall_clock_limit_s
        self.detect_deadlock = detect_deadlock
        self.check_interval_events = max(1, check_interval_events)
        self.deadline = (
            time.monotonic() + wall_clock_limit_s
            if wall_clock_limit_s is not None
            else None
        )

    def check(self, sim: "Simulator", processed: int) -> None:
        """Raise :class:`SimStallError` if the wall-clock budget is spent."""
        if self.deadline is None or time.monotonic() <= self.deadline:
            return
        snapshot = sim.snapshot(events_processed=processed)
        raise SimStallError(
            f"simulation exceeded its {self.wall_clock_limit_s}s wall-clock "
            f"budget at t={sim.now}ps ({processed} events this run, "
            f"{snapshot['queue_depth']} queued, "
            f"{snapshot['live_processes']} live processes)",
            snapshot=snapshot,
        )


#: process-wide watchdog consulted by every ``Simulator.run`` when the
#: caller passes none explicitly (armed per spec by the sweep harness).
_ACTIVE_WATCHDOG: Optional[StallWatchdog] = None


def install_watchdog(watchdog: StallWatchdog) -> StallWatchdog:
    """Arm ``watchdog`` as the process-wide default; returns it."""
    global _ACTIVE_WATCHDOG
    _ACTIVE_WATCHDOG = watchdog
    return watchdog


def clear_watchdog() -> None:
    """Disarm the process-wide watchdog."""
    global _ACTIVE_WATCHDOG
    _ACTIVE_WATCHDOG = None


def active_watchdog() -> Optional[StallWatchdog]:
    """The currently armed process-wide watchdog, if any."""
    return _ACTIVE_WATCHDOG


def _reraise(exc: BaseException) -> None:
    """Heap callback surfacing a failure no continuation handles."""
    raise exc


#: pending children an AllOf/AnyOf wait description names before "+N more".
_NAMED_CHILDREN = 3


def _describe_wait(target: Any) -> str:
    """Human-readable description of what a process is suspended on."""
    if isinstance(target, int):
        return f"delay {target}ps"
    if isinstance(target, Process):
        return f"process {target.name!r}"
    if isinstance(target, SimEvent):
        return f"event {target.name!r}"
    if isinstance(target, (AllOf, AnyOf)):
        # name what is still pending: a request served by a callback chain
        # is no process of its own, so this is where it shows up
        pending = [
            _describe_wait(child)
            for child in target.children
            if not (child.finished if isinstance(child, Process) else child.triggered)
        ]
        shown = ", ".join(pending[:_NAMED_CHILDREN])
        if len(pending) > _NAMED_CHILDREN:
            shown += f", +{len(pending) - _NAMED_CHILDREN} more"
        kind = type(target).__name__
        return f"{kind}({len(target.children)} children; pending: {shown or 'none'})"
    return "nothing (not yet waiting)" if target is None else repr(target)


class SimEvent:
    """A one-shot event that processes can wait on.

    An event starts untriggered; calling :meth:`succeed` fires it exactly
    once with an optional value, resuming every waiter.  Calling
    :meth:`fail` instead fires it with an exception, which is thrown into
    every waiting process.
    """

    __slots__ = ("sim", "name", "_value", "_triggered", "_failed", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._triggered = False
        self._failed = False
        self._callbacks: List[Callable[["SimEvent"], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def failed(self) -> bool:
        """Whether the event fired with an exception instead of a value."""
        return self._failed

    @property
    def value(self) -> Any:
        """The value the event fired with (None before triggering).

        For failed events this is the exception instance.
        """
        return self._value

    def succeed(self, value: Any = None) -> "SimEvent":
        """Fire the event, resuming all waiters at the current time."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Fire the event with an exception, throwing it into every waiter.

        A failure with no registered waiter raises ``exc`` immediately at
        the fail site — failures must be handled, never dropped.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(
                f"event {self.name!r} failed with non-exception {exc!r}"
            )
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._failed = True
        self._value = exc
        callbacks, self._callbacks = self._callbacks, []
        if not callbacks:
            raise exc
        for callback in callbacks:
            callback(self)
        return self

    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Run ``callback(event)`` when the event fires (now if already fired)."""
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)


class AllOf:
    """Condition satisfied when all child events/processes have fired.

    A failing child throws its exception into the waiting process (first
    failure wins; later results are discarded).
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]) -> None:
        self.children = list(children)


class AnyOf:
    """Condition satisfied when the *first* child event/process fires.

    The waiting process resumes with the first child's value (or has its
    exception thrown, if that child failed); later firings are ignored.
    Used for timeout patterns: ``yield AnyOf([ack, sim.timeout(t)])``.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Any]) -> None:
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf needs at least one child")


class Process:
    """A running simulation process wrapping a generator.

    The generator's return value becomes :attr:`value`, and :attr:`done`
    is a :class:`SimEvent` fired on completion.  If the generator raises,
    ``done`` fails (throwing into any waiter); with no waiter the
    exception propagates out of :meth:`Simulator.run`.

    Every suspension records a wait *epoch*; resume callbacks carry the
    epoch they were registered under and are ignored once stale.  That is
    what lets :meth:`interrupt` (and :class:`AnyOf` losers) cancel a
    pending wait without the resumed process being woken twice.
    """

    __slots__ = ("sim", "name", "done", "_gen", "_finished", "_epoch", "_blocked_on")

    # Resume paths are allocation-slim on purpose: a timer wait schedules a
    # bound method with the epoch as its argument (no closure), and an event
    # wait registers one closure that defers through the heap via
    # :meth:`_event_resume` (one tuple) — the deferral is what preserves
    # same-timestamp FIFO ordering, so it must stay.

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self.done = SimEvent(sim, name=f"{self.name}.done")
        self._gen = gen
        self._finished = False
        self._epoch = 0
        self._blocked_on: Any = None
        sim._live.add(self)
        sim.defer(self._step, None)

    @property
    def finished(self) -> bool:
        """Whether the underlying generator has returned."""
        return self._finished

    @property
    def value(self) -> Any:
        """The generator's return value (None until finished)."""
        return self.done.value

    def waiting_on(self) -> str:
        """What the process is currently suspended on (diagnostics)."""
        if self._finished:
            return "finished"
        return _describe_wait(self._blocked_on)

    def interrupt(self, exc: BaseException) -> None:
        """Throw ``exc`` into the process at the current time.

        Cancels whatever the process is waiting on (timeout/cancellation
        support); a finished process ignores the interrupt.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(
                f"process {self.name!r} interrupted with non-exception {exc!r}"
            )
        self.sim.defer(
            lambda _arg: None if self._finished else self._advance(True, exc), None
        )

    def _step(self, send_value: Any) -> None:
        self._advance(False, send_value)

    def _resume(self, epoch: int, throw: bool, value: Any) -> None:
        """Resume from a wait registered at ``epoch`` (ignored if stale)."""
        if self._finished or epoch != self._epoch:
            return
        self._advance(throw, value)

    def _timer_resume(self, epoch: int) -> None:
        """Heap callback for plain-delay waits (arg is the wait epoch)."""
        if self._finished or epoch != self._epoch:
            return
        self._advance(False, None)

    def _event_resume(self, pair: Tuple[int, "SimEvent"]) -> None:
        """Heap callback for event waits (arg is ``(epoch, event)``)."""
        epoch, event = pair
        if self._finished or epoch != self._epoch:
            return
        self._advance(event._failed, event._value)

    def _advance(self, throw: bool, value: Any) -> None:
        self._epoch += 1
        try:
            if throw:
                target = self._gen.throw(value)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finished = True
            self.sim._live.discard(self)
            self.done.succeed(stop.value)
            return
        except BaseException as exc:
            self._finished = True
            self.sim._live.discard(self)
            # deliver to a waiter if someone is listening, else surface
            # loudly out of the event loop
            if self.done._callbacks:
                self.done.fail(exc)
                return
            raise
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        epoch = self._epoch
        self._blocked_on = target
        if isinstance(target, int):
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {target}"
                )
            self.sim.schedule(target, self._timer_resume, epoch)
        elif isinstance(target, (SimEvent, Process)):
            event = target.done if isinstance(target, Process) else target
            event.add_callback(
                lambda ev, _e=epoch: self.sim.defer(
                    self._event_resume, (_e, ev)
                )
            )
        elif isinstance(target, AllOf):
            self._wait_all(target.children, epoch)
        elif isinstance(target, AnyOf):
            self._wait_any(target.children, epoch)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )

    def _wait_all(self, children: List[Any], epoch: int) -> None:
        pending = len(children)
        if pending == 0:
            self.sim.defer(lambda _arg: self._resume(epoch, False, []), None)
            return
        results: List[Any] = [None] * pending
        remaining = [pending]

        def on_done(index: int, ev: SimEvent) -> None:
            if ev.failed:
                # first failure wins; stale-epoch guard drops the rest
                self.sim.defer(
                    lambda _arg: self._resume(epoch, True, ev.value), None
                )
                return
            results[index] = ev.value
            remaining[0] -= 1
            if remaining[0] == 0:
                self.sim.defer(
                    lambda _arg: self._resume(epoch, False, results), None
                )

        for index, child in enumerate(children):
            event = child.done if isinstance(child, Process) else child
            if not isinstance(event, SimEvent):
                raise SimulationError(f"AllOf child {child!r} is not waitable")
            event.add_callback(lambda ev, i=index: on_done(i, ev))

    def _wait_any(self, children: List[Any], epoch: int) -> None:
        delivered = [False]

        def on_fire(ev: SimEvent) -> None:
            if delivered[0]:
                return
            delivered[0] = True
            self.sim.defer(
                lambda _arg: self._resume(epoch, ev.failed, ev.value), None
            )

        for child in children:
            event = child.done if isinstance(child, Process) else child
            if not isinstance(event, SimEvent):
                raise SimulationError(f"AnyOf child {child!r} is not waitable")
            event.add_callback(on_fire)


class Simulator:
    """The event loop: a binary heap of ``(time, seq, callback, arg)``
    entries, one pop per event."""

    __slots__ = ("_now", "_seq", "_queue", "_live", "trace")

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Callable[[Any], None], Any]] = []
        #: unfinished processes (diagnostics: who is blocked, and on what).
        self._live: set = set()
        #: observability hook; the shared no-op recorder unless a
        #: :class:`~repro.trace.recorder.TraceRecorder` is installed.
        self.trace = NULL_RECORDER

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    def blocked_processes(self) -> List[Tuple[str, str]]:
        """``(name, waiting_on)`` for every unfinished process, sorted.

        Deterministic (name-sorted) so stall/deadlock diagnoses are
        stable across runs of the same simulation.
        """
        return sorted(
            (process.name, process.waiting_on()) for process in self._live
        )

    def snapshot(self, events_processed: int = 0) -> Dict[str, Any]:
        """Diagnostic state dump used by stall/deadlock reports."""
        blocked = self.blocked_processes()
        return {
            "time_ps": self._now,
            "events_processed": events_processed,
            "queue_depth": len(self._queue),
            "live_processes": len(blocked),
            "blocked": blocked[:16],
        }

    def event(self, name: str = "") -> SimEvent:
        """Create a fresh untriggered event bound to this simulator."""
        return SimEvent(self, name=name)

    def schedule(self, delay: int, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` after ``delay`` picoseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback, arg))

    def at(self, time: int, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (delay={time - self._now})"
            )
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, callback, arg))

    def defer(self, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` now, after everything already queued for now."""
        self._seq += 1
        heapq.heappush(self._queue, (self._now, self._seq, callback, arg))

    def then(self, event: SimEvent, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` once ``event`` fires, deferred as a process's
        event wait is; a failed ``event`` raises out of :meth:`run`."""

        def fired(ev: SimEvent) -> None:
            if ev._failed:
                self.defer(_reraise, ev._value)
            else:
                self.defer(callback, arg)

        event.add_callback(fired)

    def then_at(self, time: int, callback: Callable[[Any], None], arg: Any = None) -> None:
        """:meth:`then` on an event that succeeds at ``time``, minus the event."""
        self.at(time, self._wake, (callback, arg))

    def _wake(self, waiter: Tuple[Callable[[Any], None], Any]) -> None:
        self.defer(waiter[0], waiter[1])

    def all_of(
        self,
        events: List[SimEvent],
        callback: Callable[[Any], None],
        arg: Any = None,
        on_fail: Optional[Callable[[Any, BaseException], None]] = None,
    ) -> None:
        """Run ``callback(arg)`` once every event has fired (an :class:`AllOf`
        wait).  A failure defers ``on_fail(arg, exc)`` instead; the first
        one wins, and with no ``on_fail`` it raises out of :meth:`run`."""
        remaining = [len(events)]
        if not events:
            self.defer(callback, arg)
            return
        settled = [False]

        def failed(exc: BaseException) -> None:
            if settled[0]:
                return
            settled[0] = True
            if on_fail is None:
                raise exc
            on_fail(arg, exc)

        def on_done(ev: SimEvent) -> None:
            if ev._failed:
                self.defer(failed, ev._value)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                self.defer(callback, arg)

        for event in events:
            event.add_callback(on_done)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from a generator and return its handle."""
        return Process(self, gen, name=name)

    def timeout(self, delay: int, value: Any = None) -> SimEvent:
        """An event that fires ``delay`` picoseconds from now."""
        event = SimEvent(self, name="timeout")
        self.schedule(delay, event.succeed, value)
        return event

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        watchdog: Optional[StallWatchdog] = None,
    ) -> int:
        """Drain the event queue; return the final simulation time.

        ``until`` bounds simulated time; ``max_events`` guards against
        runaway simulations: the run may complete in *exactly*
        ``max_events`` events, and :class:`SimulationError` is raised only
        when one more in-horizon event would exceed the budget.  Whether
        the queue empties before the horizon or not, the clock lands on
        ``until`` (never moving backwards), so time-based rate
        denominators are consistent across both cases.

        ``watchdog`` (default: the process-wide one armed via
        :func:`install_watchdog`, if any) adds no-progress detection: a
        wall-clock budget enforced every ``check_interval_events``
        events (:class:`~repro.errors.SimStallError` with a diagnostic
        snapshot), and — when ``detect_deadlock`` is set — a structured
        :class:`~repro.errors.DeadlockError` naming the waiting
        processes if the queue drains while some are still suspended.
        """
        if watchdog is None:
            watchdog = _ACTIVE_WATCHDOG
        processed = 0
        trace = self.trace
        tracing = trace.enabled
        check_every = (
            watchdog.check_interval_events
            if watchdog is not None and watchdog.deadline is not None
            else 0
        )
        # hot loop: everything loop-invariant is hoisted into locals, the
        # horizon/budget guards become plain comparisons against +inf
        # sentinels, and watchdog polling is amortized onto a next-check
        # threshold instead of a modulo per event.
        queue = self._queue
        pop = heapq.heappop
        horizon = until if until is not None else _NO_BOUND
        budget = max_events if max_events is not None else _NO_BOUND
        next_check = check_every if check_every else _NO_BOUND
        while queue:
            entry = queue[0]
            time = entry[0]
            if time > horizon:
                break
            if processed >= budget:
                raise SimulationError(f"exceeded max_events={max_events}")
            pop(queue)
            if tracing and time != self._now:
                self._now = time
                trace.on_time_advance(time)
            else:
                self._now = time
            entry[2](entry[3])
            processed += 1
            if processed >= next_check:
                watchdog.check(self, processed)
                next_check += check_every
        if watchdog is not None and watchdog.detect_deadlock and not queue:
            blocked = self.blocked_processes()
            if blocked:
                detail = "; ".join(f"{name} <- {wait}" for name, wait in blocked[:8])
                raise DeadlockError(
                    f"event queue drained at t={self._now}ps with "
                    f"{len(blocked)} blocked process(es): {detail}",
                    blocked=blocked,
                    time_ps=self._now,
                )
        if until is not None and until > self._now:
            self._now = until
            if self.trace.enabled:
                self.trace.on_time_advance(until)
        return self._now

    def run_process(self, gen: ProcessGen, name: str = "") -> Any:
        """Convenience: start a process, run to completion, return its value."""
        proc = self.process(gen, name=name)
        self.run()
        if not proc.finished:
            blocked = self.blocked_processes()
            detail = "; ".join(f"{name} <- {wait}" for name, wait in blocked[:8])
            raise DeadlockError(
                f"process {proc.name!r} deadlocked at t={self._now}ps"
                + (f" (blocked: {detail})" if detail else ""),
                blocked=blocked,
                time_ps=self._now,
            )
        return proc.value
