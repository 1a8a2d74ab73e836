"""Tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import AllOf, AnyOf, BandwidthResource, Simulator, StallWatchdog
from repro.sim.time import ns


def test_schedule_order_is_time_then_fifo():
    sim = Simulator()
    log = []
    sim.schedule(10, lambda _: log.append("b"))
    sim.schedule(5, lambda _: log.append("a"))
    sim.schedule(10, lambda _: log.append("c"))
    sim.run()
    assert log == ["a", "b", "c"]


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(ns(7), lambda _: seen.append(sim.now))
    sim.run()
    assert seen == [ns(7)]
    assert sim.now == ns(7)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda _: None)


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda _: fired.append(True))
    assert sim.run(until=50) == 50
    assert not fired
    sim.run()
    assert fired


def test_run_until_advances_clock_when_queue_drains_early():
    # regression: if the queue emptied before the horizon, ``now`` stayed at
    # the last event time, making bytes/elapsed denominators inconsistent
    # with runs where the horizon cut the queue off
    sim = Simulator()
    sim.schedule(10, lambda _: None)
    assert sim.run(until=100) == 100
    assert sim.now == 100


def test_run_until_advances_clock_on_empty_queue():
    sim = Simulator()
    assert sim.run(until=75) == 75
    assert sim.now == 75


def test_run_until_never_moves_clock_backwards():
    sim = Simulator()
    sim.schedule(50, lambda _: None)
    sim.run()
    assert sim.now == 50
    assert sim.run(until=20) == 50
    assert sim.now == 50


def test_process_sleep_and_return_value():
    sim = Simulator()

    def proc():
        yield 25
        yield 25
        return "done"

    assert sim.run_process(proc()) == "done"
    assert sim.now == 50


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    gate = sim.event("gate")
    sim.schedule(30, lambda _: gate.succeed(42))

    def proc():
        value = yield gate
        return value

    assert sim.run_process(proc()) == 42
    assert sim.now == 30


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield 10
        return "child-value"

    def parent():
        value = yield sim.process(child())
        return value

    assert sim.run_process(parent()) == "child-value"


def test_allof_waits_for_every_child():
    sim = Simulator()

    def child(delay, tag):
        yield delay
        return tag

    def parent():
        procs = [sim.process(child(d, i)) for i, d in enumerate([30, 10, 20])]
        results = yield AllOf(procs)
        return results

    assert sim.run_process(parent()) == [0, 1, 2]
    assert sim.now == 30


def test_allof_empty_resumes_immediately():
    sim = Simulator()

    def parent():
        results = yield AllOf([])
        return results

    assert sim.run_process(parent()) == []


def test_event_double_succeed_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yield_on_already_triggered_event():
    sim = Simulator()
    event = sim.event()
    event.succeed("early")

    def proc():
        value = yield event
        return value

    assert sim.run_process(proc()) == "early"


def test_timeout_event_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(15, value="tick")
        return value

    assert sim.run_process(proc()) == "tick"
    assert sim.now == 15


def test_max_events_guard():
    sim = Simulator()

    def rearm(_):
        sim.schedule(1, rearm)

    sim.schedule(1, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_deadlocked_process_detected():
    sim = Simulator()

    def proc():
        yield sim.event("never")

    proc_handle = sim.process(proc())
    sim.run()
    assert not proc_handle.finished
    with pytest.raises(SimulationError):
        sim.run_process(iter([sim.event("never2")].__iter__()) if False else _stuck(sim))


def _stuck(sim):
    yield sim.event("never3")


def test_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "not-a-waitable"

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


# -- failure, cancellation, and AnyOf semantics ------------------------------------


def test_event_fail_throws_into_waiter():
    sim = Simulator()
    gate = sim.event("gate")
    sim.schedule(10, lambda _: gate.fail(ValueError("boom")))

    def proc():
        try:
            yield gate
        except ValueError as exc:
            return f"recovered:{exc}"

    assert sim.run_process(proc()) == "recovered:boom"
    assert sim.now == 10
    assert gate.failed


def test_event_fail_without_waiter_raises_at_fail_site():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.event("gate").fail(ValueError("unhandled"))


def test_event_fail_with_non_exception_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not-an-exception")


def test_process_failure_propagates_out_of_run_without_waiter():
    sim = Simulator()

    def proc():
        yield 5
        raise RuntimeError("loud")

    sim.process(proc())
    with pytest.raises(RuntimeError):
        sim.run()


def test_process_failure_delivered_to_waiting_parent():
    sim = Simulator()

    def child():
        yield 5
        raise RuntimeError("child died")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError:
            return "handled"

    assert sim.run_process(parent()) == "handled"


def test_anyof_first_event_wins_and_losers_are_ignored():
    sim = Simulator()
    def proc():
        value = yield AnyOf([sim.timeout(50, "slow"), sim.timeout(10, "fast")])
        return value

    assert sim.run_process(proc()) == "fast"


def test_anyof_timeout_pattern_guards_a_hung_event():
    sim = Simulator()
    def proc():
        result = yield AnyOf([sim.event("never-acked"), sim.timeout(100, "timeout")])
        return result

    assert sim.run_process(proc()) == "timeout"
    assert sim.now == 100


def test_anyof_needs_children():
    with pytest.raises(SimulationError):
        AnyOf([])


def test_allof_child_failure_throws_first_failure():
    sim = Simulator()
    bad = sim.event("bad")
    sim.schedule(5, lambda _: bad.fail(ValueError("first")))

    def proc():
        try:
            yield AllOf([sim.timeout(50), bad])
        except ValueError:
            return sim.now

    assert sim.run_process(proc()) == 5


def test_interrupt_cancels_pending_sleep():
    sim = Simulator()

    def proc():
        try:
            yield 1000
        except TimeoutError:
            return sim.now

    handle = sim.process(proc())
    sim.schedule(100, lambda _: handle.interrupt(TimeoutError()))
    sim.run()
    assert handle.value == 100
    # the stale 1000ps wakeup must not resume the finished process
    assert sim.now >= 1000 or handle.finished


def test_interrupt_after_finish_is_ignored():
    sim = Simulator()

    def proc():
        yield 10
        return "ok"

    handle = sim.process(proc())
    sim.schedule(50, lambda _: handle.interrupt(RuntimeError("late")))
    sim.run()
    assert handle.value == "ok"


def test_interrupt_with_non_exception_rejected():
    sim = Simulator()

    def proc():
        yield 10

    handle = sim.process(proc())
    with pytest.raises(SimulationError):
        handle.interrupt("oops")


# -- stall watchdog / deadlock diagnosis ---------------------------------------------


def test_run_process_deadlock_error_names_blocked_processes():
    from repro.errors import DeadlockError

    sim = Simulator()

    def stuck():
        yield sim.event("never-fires")

    with pytest.raises(DeadlockError) as excinfo:
        sim.run_process(stuck(), name="stuck-proc")
    err = excinfo.value
    assert ("stuck-proc", "event 'never-fires'") in err.blocked
    assert "stuck-proc" in str(err)
    assert "never-fires" in str(err)


def test_blocked_processes_describe_their_wait_targets():
    sim = Simulator()

    def on_event():
        yield sim.event("ack")

    def on_delay():
        yield ns(5)

    sim.process(on_event(), name="waiter")
    sim.process(on_delay(), name="sleeper")
    sim.run(until=0)  # let both reach their first yield, nothing fires
    blocked = dict(sim.blocked_processes())
    assert blocked["waiter"] == "event 'ack'"
    assert blocked["sleeper"].startswith("delay ")


def test_condition_waits_name_their_pending_children():
    sim = Simulator()
    fired, waiting = sim.event("fired"), [sim.event(f"req{i}") for i in range(5)]
    fired.succeed(None)

    def on_all():
        yield AllOf([fired] + waiting)

    def on_any():
        yield AnyOf(waiting[:2])

    sim.process(on_all(), name="all")
    sim.process(on_any(), name="any")
    sim.run(until=0)
    blocked = dict(sim.blocked_processes())
    assert blocked["all"] == (
        "AllOf(6 children; pending: event 'req0', event 'req1', event 'req2', +2 more)"
    )
    assert blocked["any"] == "AnyOf(2 children; pending: event 'req0', event 'req1')"


def test_wall_clock_stall_raises_with_snapshot():
    from repro.errors import SimStallError
    from repro.sim import StallWatchdog

    sim = Simulator()

    def spin():
        while True:
            yield 1

    sim.process(spin(), name="spinner")
    watchdog = StallWatchdog(wall_clock_limit_s=0.05, check_interval_events=64)
    with pytest.raises(SimStallError) as excinfo:
        sim.run(watchdog=watchdog)
    snapshot = excinfo.value.snapshot
    assert snapshot["time_ps"] == sim.now
    assert snapshot["events_processed"] > 0
    assert ("spinner", "delay 1ps") in snapshot["blocked"]


def test_deadlock_detected_on_queue_drain_when_enabled():
    from repro.errors import DeadlockError
    from repro.sim import StallWatchdog

    sim = Simulator()

    def stuck():
        yield sim.event("missing-ack")

    sim.process(stuck(), name="orphan")
    with pytest.raises(DeadlockError) as excinfo:
        sim.run(watchdog=StallWatchdog(detect_deadlock=True))
    assert ("orphan", "event 'missing-ack'") in excinfo.value.blocked


def test_drain_without_blocked_processes_passes_deadlock_detection():
    from repro.sim import StallWatchdog

    sim = Simulator()

    def quick():
        yield 5
        return "done"

    handle = sim.process(quick())
    sim.run(watchdog=StallWatchdog(detect_deadlock=True))
    assert handle.value == "done"


def test_process_wide_watchdog_install_and_clear():
    from repro.errors import SimStallError
    from repro.sim import (
        StallWatchdog,
        active_watchdog,
        clear_watchdog,
        install_watchdog,
    )

    sim = Simulator()

    def spin():
        while True:
            yield 1

    sim.process(spin(), name="spinner")
    install_watchdog(StallWatchdog(wall_clock_limit_s=0.05, check_interval_events=64))
    try:
        assert active_watchdog() is not None
        with pytest.raises(SimStallError):
            sim.run()  # picks up the installed watchdog implicitly
    finally:
        clear_watchdog()
    assert active_watchdog() is None


def test_watchdog_rejects_nonpositive_budget():
    from repro.sim import StallWatchdog

    with pytest.raises(SimulationError):
        StallWatchdog(wall_clock_limit_s=0.0)


def test_max_events_exact_budget_completes():
    # a run finishing in exactly max_events events is within budget: the
    # guard fires only when one MORE in-horizon event would exceed it
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    assert sim.run(max_events=10) == 10
    assert fired == list(range(10))

    sim = Simulator()
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    with pytest.raises(SimulationError):
        sim.run(max_events=9)


def _probe_sim():
    """A scenario crossing every scheduling path: serialised link grants,
    a chain of short relative timers, processes, and absolute timers
    including one armed out of time order."""
    sim = Simulator()
    log = []

    def note(tag):
        log.append((sim.now, tag))

    link = BandwidthResource(sim, 10.0, latency_ps=40_000, name="link")

    def worker(count, size, tag):
        for i in range(count):
            yield link.transfer(size)
            note(f"{tag}:{i}")

    sim.process(worker(25, 256, "wa"), name="wa")
    sim.process(worker(25, 192, "wb"), name="wb")

    def chain(depth):
        note(f"chain:{depth}")
        if depth:
            sim.schedule(1_500, chain, depth - 1)

    sim.schedule(3_000, chain, 12)

    when = 5_000
    for i in range(30):
        sim.at(when, note, f"aux:{i}")
        when += 7_000
    sim.at(12_345, note, "aux:ooo")  # earlier than the timers armed before it

    for i in range(10):
        sim.at(9_000 + 17_000 * i, note, f"at:{i}")
    return sim, log


def _probe_event_count():
    """Exact number of events the probe executes: the smallest
    ``max_events`` budget it completes under."""
    low, high = 0, 10_000
    while low < high:
        mid = (low + high) // 2
        sim, _log = _probe_sim()
        try:
            sim.run(max_events=mid)
        except SimulationError:
            low = mid + 1
        else:
            high = mid
    return low


def test_until_segments_match_single_shot():
    """Slicing a run into ``until`` segments must not change anything."""
    sim_one, log_one = _probe_sim()
    sim_one.run()
    assert log_one  # the probe actually exercised something

    sim, log = _probe_sim()
    for horizon in range(20_000, 400_000, 37_000):
        assert sim.run(until=horizon) == horizon  # clock lands on the horizon
    sim.run()
    assert log == log_one
    assert sim.now == sim_one.now


def test_max_events_budget_then_resume_reaches_the_same_log():
    n_events = _probe_event_count()
    sim_ref, log_ref = _probe_sim()
    sim_ref.run()

    # a run completing in exactly max_events events must NOT raise
    sim, log = _probe_sim()
    sim.run(max_events=n_events)
    assert log == log_ref

    # one short of the budget must raise, and the queue must stay
    # consistent enough to resume to the identical final state
    sim, log = _probe_sim()
    with pytest.raises(SimulationError):
        sim.run(max_events=n_events - 1)
    sim.run()
    assert log == log_ref


def test_deadlock_error_message_is_structured():
    sim = Simulator()
    never = sim.event(name="never")

    def waiter():
        yield never

    sim.process(waiter(), name="stuck")
    sim.schedule(1_000, lambda _arg: None)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run(watchdog=StallWatchdog(detect_deadlock=True))
    assert str(excinfo.value) == (
        "event queue drained at t=1000ps with 1 blocked process(es): "
        "stuck <- event 'never'"
    )
    assert excinfo.value.blocked == [("stuck", "event 'never'")]
    assert excinfo.value.time_ps == 1_000


# -- continuations: callback chains that push what a process would -------------------


def _chain_or_process(chained, build):
    """Run ``build(sim, chained, record)`` as chains or processes; return
    the log of ``(tag, now, seq)`` records and the final push count."""
    sim = Simulator()
    log = []

    def record(tag):
        log.append((tag, sim.now, sim._seq))

    build(sim, chained, record)
    sim.run()
    return log, sim._seq


def test_then_pushes_what_an_event_wait_pushes():
    def build(sim, chained, record):
        early = sim.event("early")
        early.succeed(None)
        late = sim.event("late")
        sim.schedule(ns(3), late.succeed, 7)
        for tag, event in (("early", early), ("late", late)):
            if chained:
                sim.defer(lambda _arg, e=event, t=tag: sim.then(e, record, t))
            else:
                def waiter(e=event, t=tag):
                    yield e
                    record(t)

                sim.process(waiter())

    chained = _chain_or_process(True, build)
    assert [tag for tag, _now, _seq in chained[0]] == ["early", "late"]
    assert chained == _chain_or_process(False, build)


def test_then_at_pushes_what_waiting_on_a_scheduled_event_pushes():
    def build(sim, chained, record):
        if chained:
            sim.defer(lambda _arg: sim.then_at(ns(4), record, "at"))
            return
        def waiter():
            event = sim.event("at")
            sim.at(ns(4), event.succeed, None)
            yield event
            record("at")

        sim.process(waiter())

    assert _chain_or_process(True, build) == _chain_or_process(False, build)


def test_all_of_pushes_what_an_allof_wait_pushes():
    def build(sim, chained, record):
        done = sim.event("done")
        done.succeed(None)
        later = sim.event("later")
        sim.schedule(ns(2), later.succeed, None)
        for tag, events in (("two", [done, later]), ("none", [])):
            if chained:
                sim.defer(lambda _arg, e=events, t=tag: sim.all_of(e, record, t))
            else:
                def waiter(e=events, t=tag):
                    yield AllOf(e)
                    record(t)

                sim.process(waiter())

    chained = _chain_or_process(True, build)
    assert [tag for tag, _now, _seq in chained[0]] == ["none", "two"]
    assert chained == _chain_or_process(False, build)


def test_then_on_a_failed_event_raises_out_of_run():
    sim = Simulator()
    event = sim.event("doomed")
    reached = []
    sim.then(event, reached.append, "never")
    sim.schedule(ns(1), lambda _arg: event.fail(ValueError("boom")))
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert reached == []


def test_all_of_first_failure_wins_with_one_deferral_per_failure():
    def build(sim, chained, record):
        first, second, fine = sim.event("a"), sim.event("b"), sim.event("c")
        sim.schedule(ns(1), lambda _arg: first.fail(ValueError("first")))
        sim.schedule(ns(2), lambda _arg: second.fail(ValueError("second")))
        sim.schedule(ns(3), fine.succeed, None)
        if chained:
            sim.defer(lambda _arg: sim.all_of(
                [first, second, fine], record, "ok",
                on_fail=lambda _arg, exc: record(str(exc)),
            ))
            return

        def waiter():
            try:
                yield AllOf([first, second, fine])
            except ValueError as exc:
                record(str(exc))
                return
            record("ok")

        sim.process(waiter())

    chained = _chain_or_process(True, build)
    assert [tag for tag, _now, _seq in chained[0]] == ["first"]
    assert chained == _chain_or_process(False, build)


def test_all_of_failure_without_handler_raises_out_of_run():
    sim = Simulator()
    event = sim.event("doomed")
    sim.all_of([event, sim.event("never")], lambda _arg: None)
    sim.schedule(ns(1), lambda _arg: event.fail(KeyError("cut")))
    with pytest.raises(KeyError):
        sim.run()
