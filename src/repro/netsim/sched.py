"""Discrete-event scheduler: many concurrent clients on one universe.

The paper's setting is a DLV registry observing traffic aggregated from
*millions* of stubs, but the resolver core is deliberately synchronous
— a stub query runs ``network.query → resolver.handle → nested
network.query`` to completion.  This module makes those synchronous
resolutions *resumable sessions* on a priority queue of timestamped
events, so many stub clients overlap in simulated time on one shared
universe (shared resolver caches, shared latency/fault RNG state,
shared registry) without rewriting a line of the resolver.

How a session suspends
----------------------

Every session runs on its own pool thread, but **exactly one thread is
ever runnable**, and it dispatches events in queue order whichever
thread it is.  A session suspends only inside :meth:`SimClock.advance`
/ :meth:`SimClock.sleep_until`, which push a wake-up event.  One
dispatch step (:meth:`EventScheduler._dispatch`) pops the queue head,
jumps the clock, counts and journals the event and runs it; the loop
thread and the workers all use it, and a thread hands control to
another only when the next event belongs to that other thread:

1. **Run-ahead.**  A suspending session whose own wake-up is the next
   event (it sorts strictly before every queued event, no session
   failure is pending, and it falls within ``run(until)``) dispatches
   that wake-up itself and carries on without a hand-off.  Otherwise it
   hands control back to the loop, which resumes it when its turn comes.
2. **Free-worker dispatch.**  A worker whose session has just finished
   keeps dispatching: timer callbacks run inline, and a session start
   runs on this same worker, which tops the LIFO idle stack and is
   therefore the thread the loop would have picked.  It wakes the loop
   only for another session's wake-up, an empty queue, ``until``, or a
   pending failure.  An exception a timer callback raises there is
   re-raised by :meth:`EventScheduler.run` on the loop, as if the loop
   had run the callback.

The same events therefore run in the same order, on the same threads
for sessions, as under a strict loop-to-session round trip per event —
``tests/netsim/test_sched_golden.py`` replays journals recorded on that
design.  There is no preemption, no lock contention, and shared RNG
streams (latency jitter, fault rolls) are consumed in event order,
which the queue makes reproducible.

Event ordering and determinism
------------------------------

The queue orders events by the tuple ``(time, priority, tiebreak,
seq)``:

1. ``time`` — simulated seconds; the loop never moves backwards.
2. ``priority`` — :class:`Priority`: at the same instant, response
   **deliveries** beat **timeout** expiries (a packet that arrives as
   the timer fires is *answered*, not dropped), timeouts beat new
   client **dispatches**, and background **timers** run last.
3. ``tiebreak`` — a caller-supplied tuple of ints (e.g. ``(user_id,
   query_index)``) that fixes the order of same-time same-priority
   events *independently of heap-insertion order*.
4. ``seq`` — insertion sequence, the final resort for events the
   caller declared order-indifferent.

Given equal tiebreaks, any legal insertion order of the same logical
events therefore dispatches identically — the property test in
``tests/netsim/test_sched.py`` enforces it.

Bounded concurrency
-------------------

``max_concurrent`` caps in-flight sessions (and therefore pool
threads): surplus dispatches queue FIFO and start the moment a slot
frees, which both bounds memory at population scale and models
resolver-side admission queueing.  Pool threads are reused across
sessions, so a million-query replay churns zero threads after warm-up.

``max_queue`` additionally bounds the admission queue itself: when the
FIFO is full a new session is **rejected** instead of queued — the
load-shedding a real resolver applies when its accept queue overflows
during a retry storm.  Rejections are counted in
:attr:`SchedulerStats.rejected` and reported to the optional
``on_reject`` callback so a replay driver can account the shed query
(the chaos replay counts it as a failed stub query).  The default
``max_queue=None`` keeps the queue unbounded — the pre-existing
behaviour, byte for byte.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import threading
from typing import Any, Callable, Deque, List, Optional, Tuple

from collections import deque

from .clock import SimClock


class Priority(enum.IntEnum):
    """Same-instant event ordering (smaller runs first)."""

    #: A response arriving / an RTT elapsing.
    DELIVERY = 0
    #: A loss-timeout expiring.  Losing to DELIVERY at the same instant
    #: is deliberate: a response that arrives exactly at the deadline is
    #: delivered, not discarded.
    TIMEOUT = 1
    #: A new client query entering the system.
    DISPATCH = 2
    #: Background timers: fault windows, aggregation-window boundaries.
    TIMER = 3


class SchedulerError(RuntimeError):
    """Misuse of the event scheduler (re-entry, calls after close, …)."""


class _SessionAborted(BaseException):
    """Internal: unwinds a suspended session when the pool closes."""


@dataclasses.dataclass
class SchedulerStats:
    """Operational counters for one scheduler lifetime (kept out of
    experiment results, like :class:`~repro.core.parallel.ExecutorHealth`)."""

    spawned: int = 0
    completed: int = 0
    failed: int = 0
    resumes: int = 0
    timers: int = 0
    queued: int = 0
    rejected: int = 0
    peak_active: int = 0
    peak_queue: int = 0
    threads_created: int = 0

    def describe(self) -> str:
        return (
            f"sessions={self.completed}/{self.spawned} "
            f"resumes={self.resumes} timers={self.timers} "
            f"queued={self.queued} rejected={self.rejected} "
            f"peak_active={self.peak_active} "
            f"peak_queue={self.peak_queue} threads={self.threads_created}"
        )


class Session:
    """One resumable client session (a unit of concurrent work)."""

    __slots__ = ("fn", "label", "tiebreak", "done", "started_at", "finished_at")

    def __init__(self, fn: Callable[[], None], label: str, tiebreak: Tuple[int, ...]):
        self.fn = fn
        self.label = label
        self.tiebreak = tiebreak
        self.done = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None


class _Worker(threading.Thread):
    """A pooled session runner; between sessions, a free worker that
    dispatches starts and timers itself (see :meth:`EventScheduler._dispatch`)."""

    def __init__(self, scheduler: "EventScheduler", index: int):
        super().__init__(name=f"sim-session-{index}", daemon=True)
        self.scheduler = scheduler
        #: Signalled by the loop when a session is assigned (or on close).
        self.assigned = threading.Event()
        #: Signalled by the loop to resume a suspended session.
        self.resume = threading.Event()
        self.session: Optional[Session] = None

    def run(self) -> None:  # pragma: no branch - thread body
        scheduler = self.scheduler
        while True:
            self.assigned.wait()
            self.assigned.clear()
            if scheduler._closing:
                return
            # The assigned session, then every session this worker
            # starts for itself as a free worker.
            while self.session is not None:
                session = self.session
                try:
                    session.fn()
                except _SessionAborted:
                    return
                except BaseException as exc:  # noqa: BLE001 - reported to run()
                    scheduler._note_failure(session, exc)
                scheduler._finish_session(self, session)
            scheduler._control.set()


class EventScheduler:
    """A deterministic discrete-event loop over a :class:`SimClock`.

    Typical population-scale use::

        clock = universe.clock
        with EventScheduler(clock, max_concurrent=256) as scheduler:
            for arrival in arrivals:           # or feed lazily
                scheduler.spawn(make_session(arrival), at=arrival.time,
                                tiebreak=(arrival.user, arrival.index))
            scheduler.run()

    The ``with`` block binds the scheduler to the clock (so
    ``clock.advance`` inside sessions suspends instead of mutating) and
    unbinds + tears the thread pool down on exit.
    """

    def __init__(
        self,
        clock: SimClock,
        max_concurrent: int = 256,
        journal: Optional[List[Tuple[float, str, str]]] = None,
        max_queue: Optional[int] = None,
        on_reject: Optional[Callable[[Session], None]] = None,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if max_queue is not None and max_queue < 0:
            raise ValueError("max_queue must be >= 0 (or None for unbounded)")
        self._clock = clock
        self._max_concurrent = max_concurrent
        #: Admission-queue capacity (``None`` = unbounded FIFO).  A
        #: session arriving with all slots busy and the queue full is
        #: rejected: it never runs, ``stats.rejected`` increments, and
        #: ``on_reject`` (if any) is invoked with the shed session.
        self._max_queue = max_queue
        self._on_reject = on_reject
        #: Optional dispatch journal: ``(time, kind, label)`` appended in
        #: execution order — the determinism fingerprint the property
        #: tests compare.  ``None`` (default) records nothing.
        self.journal = journal
        self.stats = SchedulerStats()
        self._heap: List[Tuple[float, int, Tuple[int, ...], int, Tuple[Any, ...]]] = []
        self._seq = 0
        self._control = threading.Event()
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._admission: Deque[Session] = deque()
        self._active = 0
        self._running = False
        self._until: Optional[float] = None
        self._closing = False
        self._failure: Optional[Tuple[Session, BaseException]] = None
        #: What a free worker's dispatch raised, for run() to re-raise.
        self._relayed: Optional[BaseException] = None
        clock.bind_scheduler(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def clock(self) -> SimClock:
        return self._clock

    def in_session(self) -> bool:
        """True when the calling thread is running one of this
        scheduler's sessions (the clock uses this to decide
        suspend-vs-mutate).  False inside a timer callback, even when a
        free worker thread runs it."""
        current = threading.current_thread()
        return (
            isinstance(current, _Worker)
            and current.scheduler is self
            and current.session is not None
        )

    def pending(self) -> int:
        """Events still queued (suspended sessions, future dispatches,
        timers) plus sessions waiting for an admission slot."""
        return len(self._heap) + len(self._admission)

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------

    def _push(
        self,
        when: float,
        priority: int,
        tiebreak: Tuple[int, ...],
        payload: Tuple[Any, ...],
    ) -> None:
        if self._closing:
            raise SchedulerError("scheduler is closed")
        if when < self._clock.now:
            raise ValueError(
                f"cannot schedule at {when!r}: clock is at {self._clock.now!r}"
            )
        self._seq += 1
        heapq.heappush(
            self._heap, (when, int(priority), tuple(tiebreak), self._seq, payload)
        )

    def spawn(
        self,
        fn: Callable[[], None],
        *,
        at: Optional[float] = None,
        label: str = "",
        tiebreak: Tuple[int, ...] = (),
    ) -> Session:
        """Schedule a new session: *fn* runs (resumably) from simulated
        time *at* (default: now).  ``tiebreak`` fixes same-instant
        dispatch order independent of insertion order."""
        session = Session(fn, label, tuple(tiebreak))
        when = self._clock.now if at is None else at
        self._push(when, Priority.DISPATCH, session.tiebreak, ("start", session))
        self.stats.spawned += 1
        return session

    def call_at(
        self,
        when: float,
        fn: Callable[[], None],
        *,
        label: str = "",
        priority: int = Priority.TIMER,
        tiebreak: Tuple[int, ...] = (),
    ) -> None:
        """Schedule a plain callback (fault window, aggregation-window
        boundary).  It runs outside any session, on the loop thread or
        on a free worker between sessions.  Callbacks must not block or
        advance the clock; they observe the instant they fire at."""
        self._push(when, priority, tuple(tiebreak), ("call", fn, label))

    def wait_until(self, deadline: float, *, priority: Optional[int] = None) -> float:
        """Suspend the calling session until simulated *deadline*.

        Called (via :meth:`SimClock.advance` / ``sleep_until``) from
        inside a session thread; schedules the wake-up, then either runs
        ahead to it (it is the next event) or hands control back to the
        event loop.  Returns the clock reading on resume — exactly
        *deadline*, the same float the serial path computes.
        """
        if not self.in_session():
            raise SchedulerError("wait_until() called outside a session")
        worker = threading.current_thread()
        effective = Priority.DELIVERY if priority is None else priority
        self._push(
            max(deadline, self._clock.now),
            effective,
            worker.session.tiebreak,
            ("resume", worker),
        )
        if self._dispatch(worker):
            return self._clock.now
        worker.resume.clear()
        self._control.set()
        worker.resume.wait()
        if self._closing:
            raise _SessionAborted()
        return self._clock.now

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SchedulerStats:
        """Dispatch events in deterministic order until the queue is
        empty (or past *until*).  Raises the first session failure, if
        any, after winding down cleanly.  Returns :attr:`stats`."""
        if self._running:
            raise SchedulerError("run() re-entered")
        if self.in_session():
            raise SchedulerError("run() called from inside a session")
        self._running = True
        self._until = until
        try:
            while self._dispatch():
                pass
        finally:
            self._running = False
            self._until = None
        if self._failure is not None:
            session, error = self._failure
            self._failure = None
            raise SchedulerError(
                f"session {session.label or '<unnamed>'!s} failed: {error!r}"
            ) from error
        return self.stats

    def _dispatch(self, runner: Optional[_Worker] = None) -> bool:
        """The one dispatch step: pop the next due event, jump the clock
        to it, count and journal it, and run it.

        ``runner`` is the calling worker (``None`` for the loop thread).
        A worker dispatches only events that run on its own thread: its
        session's wake-up while it has a session (run-ahead), starts and
        timers once it is free.  Returns False without dispatching when
        the caller must stop: the queue is empty, its head lies past
        ``run(until)``, a session failure is pending, or the head belongs
        to another thread.
        """
        heap = self._heap
        if not heap or self._failure is not None:
            return False
        when, _priority, _tiebreak, _seq, payload = heap[0]
        if self._until is not None and when > self._until:
            return False
        kind = payload[0]
        if (
            runner is not None
            and payload[1] is not runner
            and (kind == "resume" or runner.session is not None)
        ):
            return False
        heapq.heappop(heap)
        self._clock._jump_to(when)
        if kind == "resume":
            worker = payload[1]
            self.stats.resumes += 1
            self._record("resume", worker.session)
            if worker is not runner:
                self._handoff(worker.resume)
        elif kind == "start":
            self._admit(payload[1], runner)
        elif kind == "call":
            _, fn, label = payload
            self.stats.timers += 1
            self._record_label("timer", label)
            fn()
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown event kind {kind!r}")
        return True

    def _handoff(self, gate: threading.Event) -> None:
        """Wake one session thread and block until control comes back;
        re-raise here what a free worker's dispatch raised meanwhile."""
        gate.set()
        self._control.wait()
        self._control.clear()
        error = self._relayed
        if error is not None:
            self._relayed = None
            raise error

    def _admit(self, session: Session, runner: Optional[_Worker]) -> None:
        if self._active >= self._max_concurrent:
            if (
                self._max_queue is not None
                and len(self._admission) >= self._max_queue
            ):
                session.done = True
                self.stats.rejected += 1
                self._record("rejected", session)
                if self._on_reject is not None:
                    self._on_reject(session)
                return
            self._admission.append(session)
            self.stats.queued += 1
            self.stats.peak_queue = max(self.stats.peak_queue, len(self._admission))
            self._record("queued", session)
            return
        self._activate(session, runner)

    def _activate(self, session: Session, runner: Optional[_Worker]) -> None:
        self._active += 1
        self.stats.peak_active = max(self.stats.peak_active, self._active)
        session.started_at = self._clock.now
        if self._idle:
            worker = self._idle.pop()
        else:
            worker = _Worker(self, len(self._workers))
            self._workers.append(worker)
            self.stats.threads_created += 1
            worker.start()
        self._record("start", session)
        worker.session = session
        if runner is None:
            self._handoff(worker.assigned)
        else:
            # A free worker runs the session itself: it tops the idle
            # stack, so it is the thread the loop would have woken.
            assert worker is runner

    def _finish_session(self, worker: _Worker, session: Session) -> None:
        """Worker-side epilogue (still the single runnable thread):
        release the slot, requeue the worker, pull the next admission,
        then dispatch as a free worker until it starts a session of its
        own or the next event belongs to another thread."""
        session.done = True
        session.finished_at = self._clock.now
        worker.session = None
        self._active -= 1
        self._idle.append(worker)
        self.stats.completed += 1
        if self._admission and self._failure is None:
            queued = self._admission.popleft()
            # Starts at the instant the slot freed: admission queueing
            # delay is modelled, not hidden.
            self._push(
                self._clock.now, Priority.DISPATCH, queued.tiebreak,
                ("start", queued),
            )
        try:
            while worker.session is None and self._dispatch(worker):
                pass
        except BaseException as error:  # noqa: BLE001 - re-raised by run()
            self._relayed = error

    def _note_failure(self, session: Session, error: BaseException) -> None:
        self.stats.failed += 1
        if self._failure is None:
            self._failure = (session, error)

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------

    def _record(self, kind: str, session: Optional[Session]) -> None:
        if self.journal is not None:
            label = session.label if session is not None else ""
            self.journal.append((self._clock.now, kind, label))

    def _record_label(self, kind: str, label: str) -> None:
        if self.journal is not None:
            self.journal.append((self._clock.now, kind, label))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear down the pool and unbind the clock.  Suspended sessions
        (possible only after a failed run) are aborted, not resumed."""
        if self._closing:
            return
        self._closing = True
        for worker in self._workers:
            worker.assigned.set()
            worker.resume.set()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers.clear()
        self._idle.clear()
        self._admission.clear()
        self._heap.clear()
        if self._clock.scheduler is self:
            self._clock.bind_scheduler(None)

    def __enter__(self) -> "EventScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EventScheduler(t={self._clock.now:.6f}, "
            f"pending={self.pending()}, active={self._active})"
        )
