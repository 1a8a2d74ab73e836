"""Pull-based worker loop: claim, heartbeat, execute, publish.

A :class:`Worker` drains a :class:`~repro.fabric.broker.WorkBroker` one
spec at a time:

1. **Claim** a runnable spec (the broker takes the lease and charges the
   attempt).
2. **Idempotency check** — if the shared cache already holds the result
   (another worker double-executed it, or a pre-fabric run produced it),
   journal ``done`` immediately and move on.
3. **Heartbeat** — a daemon thread renews the lease every TTL/3 while
   the simulation runs, so a *slow* spec is not mistaken for a *dead*
   worker.  If renewal reports the lease lost (this process was presumed
   dead and the spec reclaimed), the worker finishes anyway and
   publishes — the cache and the broker's idempotent ``complete`` make
   the duplicate harmless.
4. **Execute** under the same supervision as the in-process runner
   (:func:`~repro.experiments.runner.supervised_call`: engine stall
   watchdog + SIGALRM backstop when a spec timeout is set).
5. **Publish** the result to the cache *before* journaling ``done`` —
   at every crash point the journal claims no more than the cache can
   prove.  The heartbeat is stopped and joined before the outcome
   (``complete``/``fail``) releases the lease.

Failures journal back through the broker (retry with backoff, then
farm-wide quarantine).  A worker that dies mid-spec needs no cleanup:
its lease expires and any claimer reclaims the spec.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import uuid
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.experiments.runner import (
    RunSpec,
    _diagnose,
    execute_spec,
    supervised_call,
)
from repro.fabric import faultpoints
from repro.fabric.broker import WorkBroker
from repro.fabric.journal import SpecRecord
from repro.nmp.results import RunResult


#: signals a ``work`` process turns into a graceful drain.
DRAIN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


@contextmanager
def _drain_signals_blocked() -> Iterator[None]:
    """Hold :data:`DRAIN_SIGNALS` pending in this thread for the block.

    A signal that arrives meanwhile is delivered when the block exits, so
    its handler sees the state the block finished setting up.  Handlers
    call :func:`defer_drain_signal` first, for signals that reach them
    through another thread.
    """
    if not hasattr(signal, "pthread_sigmask"):  # pragma: no cover - non-POSIX
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, DRAIN_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def defer_drain_signal(signum: int) -> bool:
    """Re-queue ``signum`` if this thread has it blocked; ``True`` if so.

    The kernel delivers a process-directed signal through any thread that
    does not block it (native pool threads, e.g. BLAS workers, never do),
    and Python then runs the handler on the main thread even while that
    thread is inside :func:`_drain_signals_blocked`.  A handler that sees
    its signal blocked sends it to its own thread instead, where it stays
    pending until the block exits.
    """
    if not hasattr(signal, "pthread_sigmask"):  # pragma: no cover - non-POSIX
        return False
    if signum not in signal.pthread_sigmask(signal.SIG_BLOCK, ()):
        return False
    signal.pthread_kill(threading.get_ident(), signum)
    return True


def default_worker_id() -> str:
    """Unique per process: ``host-pid-suffix`` (suffix for same-process
    workers in tests)."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class Worker:
    """Executes broker specs until told to stop or the queue drains."""

    def __init__(
        self,
        broker: WorkBroker,
        worker_id: Optional[str] = None,
        execute: Callable[[RunSpec], RunResult] = execute_spec,
        spec_timeout: Optional[float] = None,
        poll_interval_s: float = 0.25,
        heartbeat_interval_s: Optional[float] = None,
    ) -> None:
        self.broker = broker
        self.worker_id = worker_id or default_worker_id()
        self.execute = execute
        self.spec_timeout = spec_timeout
        self.poll_interval_s = poll_interval_s
        self.heartbeat_interval_s = heartbeat_interval_s or max(
            0.05, broker.config.lease_ttl_s / 3.0
        )
        #: specs this worker claimed / finished / failed / served from cache.
        self.claimed = 0
        self.completed = 0
        self.failed = 0
        self.cache_served = 0
        #: heartbeats that found the lease stolen (we were presumed dead)
        #: or could no longer be written (ENOSPC/EACCES/dead mount).
        self.leases_lost = 0
        #: renew attempts that raised (surfaced, not swallowed).
        self.heartbeat_errors = 0
        #: key of the spec currently being executed (graceful-drain hook).
        self.current_key: Optional[str] = None
        self._stop = threading.Event()
        self._heartbeat_thread: Optional[threading.Thread] = None

    def stop(self) -> None:
        """Ask a running loop to exit after the current spec."""
        self._stop.set()

    def relinquish_current(self, reason: str = "worker drained") -> bool:
        """Hand the in-flight claim back to the queue (graceful drain).

        Called after an interrupt (SIGTERM/SIGINT) cut execution short:
        the spec goes straight back to ``pending`` with its attempt
        uncharged, so another worker claims it immediately instead of
        waiting out this worker's lease TTL.  No-op when nothing is
        claimed or the claim already reached an outcome.
        """
        key, self.current_key = self.current_key, None
        if key is None:
            return False
        return self.broker.relinquish(key, self.worker_id, reason=reason)

    # -- the loop --------------------------------------------------------------------

    def step(self) -> bool:
        """Claim and execute at most one spec; ``False`` if none runnable.

        SIGTERM/SIGINT stay blocked from before the claim until
        :attr:`current_key` names it: a drain handler never runs between
        the lease being written and the worker knowing what to hand back.
        """
        with _drain_signals_blocked():
            record = self.broker.claim(self.worker_id)
            if record is not None:
                self.current_key = record.key
        if record is None:
            return False
        self.claimed += 1
        self._execute_claimed(record)
        return True

    def run(self, drain: bool = True) -> int:
        """Work until the queue drains (``drain=True``) or forever
        (``drain=False``, until :meth:`stop`).  Returns specs executed.

        With ``drain`` the loop keeps polling while anything is still
        *leased* elsewhere: if that worker dies, this one reclaims the
        spec after its lease TTL instead of exiting early.
        """
        executed = 0
        while not self._stop.is_set():
            if self.step():
                executed += 1
                continue
            if drain and self.broker.drained():
                break
            self._stop.wait(self.poll_interval_s)
        return executed

    # -- one spec --------------------------------------------------------------------

    #: consecutive failed renew *writes* tolerated before the heartbeat
    #: declares the lease lost (transient FS hiccups retry; a dead disk
    #: or revoked permission does not heal in three beats).
    HEARTBEAT_ERROR_BUDGET = 3

    def _execute_claimed(self, record: SpecRecord) -> None:
        key = record.key
        if self.broker.cache.get(key) is not None:
            # exactly-once shortcut: someone already published this result
            self.broker.complete(key, self.worker_id)
            self.cache_served += 1
            self.current_key = None
            return
        heartbeat = self._start_heartbeat(key)
        try:
            spec = RunSpec(**record.spec)  # type: ignore[arg-type]
            result = supervised_call(self.execute, spec, self.spec_timeout)
        except Exception as exc:
            self._stop_heartbeat(heartbeat)
            self.failed += 1
            self.broker.fail(
                key,
                self.worker_id,
                f"{type(exc).__name__}: {exc}",
                _diagnose(exc),
            )
            self.current_key = None
        else:
            self.broker.cache.put(key, result, spec=record.spec)
            faultpoints.trip("worker.publish.after_cache_put")
            self._stop_heartbeat(heartbeat)
            self.broker.complete(key, self.worker_id)
            self.completed += 1
            self.current_key = None
        finally:
            self._stop_heartbeat(heartbeat)  # idempotent; covers interrupts

    def _stop_heartbeat(self, heartbeat: threading.Event) -> None:
        """Stop and join the beat thread.  Runs before ``complete``/
        ``fail`` release the lease: a beat landing after the release
        would find no holder and count a spurious lease loss."""
        heartbeat.set()
        self._join_heartbeat()

    def _start_heartbeat(self, key: str) -> threading.Event:
        """Renew the lease on ``key`` until the returned event is set.

        The beat thread never dies silently: a renew that reports the
        lease stolen, raises persistently (ENOSPC/EACCES/dead mount), or
        raises anything unexpected is surfaced as a lease loss
        (``leases_lost``/``heartbeat_errors``) before the thread exits.
        Execution continues either way — publishing a duplicate result
        is a no-op through the idempotent cache.
        """
        done = threading.Event()

        def beat() -> None:
            consecutive_errors = 0
            while not done.wait(self.heartbeat_interval_s):
                try:
                    if not self.broker.leases.renew(key, self.worker_id):
                        # reclaimed: we were presumed dead.  Keep going —
                        # publishing a duplicate result is a no-op.
                        self.leases_lost += 1
                        return
                except OSError:
                    # transient FS hiccup: retry next beat — but a write
                    # path that stays broken IS lease loss in progress
                    self.heartbeat_errors += 1
                    consecutive_errors += 1
                    if consecutive_errors >= self.HEARTBEAT_ERROR_BUDGET:
                        self.leases_lost += 1
                        return
                    continue
                except Exception:
                    # renew blew up in an unforeseen way: surface it as
                    # lease loss instead of dying silently in a daemon
                    self.heartbeat_errors += 1
                    self.leases_lost += 1
                    return
                consecutive_errors = 0

        self._heartbeat_thread = threading.Thread(
            target=beat, name=f"lease-heartbeat-{key[:8]}", daemon=True
        )
        self._heartbeat_thread.start()
        return done

    def _join_heartbeat(self, timeout_s: Optional[float] = None) -> None:
        """Wait (bounded) for the beat thread so it never outlives its
        spec and renews a lease the worker no longer wants."""
        thread, self._heartbeat_thread = self._heartbeat_thread, None
        if thread is None:
            return
        thread.join(timeout_s if timeout_s is not None else
                    max(1.0, 2 * self.heartbeat_interval_s))

    def __repr__(self) -> str:
        return (
            f"Worker({self.worker_id!r}, claimed={self.claimed}, "
            f"completed={self.completed}, failed={self.failed}, "
            f"cache_served={self.cache_served}, lost={self.leases_lost})"
        )
