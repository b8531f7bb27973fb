"""Simulated wall clock.

All components that need time — caches checking TTL expiry, the capture
stamping packets, latency accounting — share one :class:`SimClock`.  No
simulation code ever reads the real clock, which keeps every experiment
deterministic and lets a 7-hour trace replay run in seconds.

Two execution modes share this one class:

* **Serial** (the default): :meth:`SimClock.advance` mutates the clock
  in place and returns immediately — exactly the pre-event-loop
  behaviour, byte for byte.
* **Scheduled**: when an :class:`~repro.netsim.sched.EventScheduler`
  has bound itself via :meth:`bind_scheduler` and the caller is running
  inside one of its sessions, ``advance``/``sleep_until`` *suspend the
  calling session* instead: a wake-up event is pushed onto the
  scheduler's queue, and earlier events (other sessions, timers) run
  first; when there are none, the session carries straight on.  When it
  resumes, the clock reads exactly the requested target time — the
  same float the serial path would have computed — so a single-session
  scheduled run is byte-identical to a serial one.

Callers outside :mod:`repro.netsim` should prefer :meth:`sleep_until`
(absolute deadline) over raw :meth:`advance` (relative delta): a
deadline is idempotent under re-entry and composes with the event
scheduler, whereas repeated ``advance(0)`` calls in a busy-wait loop
silently spin without making progress.  Raw ``advance`` call sites
outside netsim are deprecated; netsim itself keeps using ``advance``
as the primitive.
"""

from __future__ import annotations

from typing import Optional


class SimClock:
    """A monotonically advancing simulated clock, in seconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: Bound event scheduler (``None`` in serial mode).  Set by
        #: :meth:`bind_scheduler`; duck-typed so this module never
        #: imports :mod:`repro.netsim.sched`.
        self._scheduler = None

    @property
    def now(self) -> float:
        return self._now

    # ------------------------------------------------------------------
    # Event-scheduler integration
    # ------------------------------------------------------------------

    def bind_scheduler(self, scheduler) -> None:
        """Attach an event scheduler: from now on, ``advance`` calls
        made *inside scheduler sessions* suspend the session rather than
        mutating the clock directly.  Pass ``None`` to detach and return
        to plain serial behaviour."""
        if scheduler is not None and self._scheduler is not None \
                and self._scheduler is not scheduler:
            raise RuntimeError("clock is already bound to another scheduler")
        self._scheduler = scheduler

    @property
    def scheduler(self):
        """The bound event scheduler, or ``None`` in serial mode."""
        return self._scheduler

    def _jump_to(self, when: float) -> None:
        """Scheduler-internal: move the clock to an event's timestamp.

        Monotonicity is the scheduler's ordering invariant — events pop
        in non-decreasing time order — so a backwards jump is a bug.
        """
        if when < self._now:
            raise ValueError(
                f"event time {when!r} is before the clock ({self._now!r})"
            )
        self._now = when

    # ------------------------------------------------------------------
    # Time movement
    # ------------------------------------------------------------------

    def advance(self, seconds: float, *, priority: Optional[int] = None) -> float:
        """Move time forward; returns the new time.

        Inside a scheduler session this *suspends the session* until the
        simulated target time; other sessions' earlier events run in
        between.  ``priority`` orders same-instant wake-ups (see
        :class:`~repro.netsim.sched.Priority`); it is ignored on the
        serial path.

        .. deprecated:: call sites outside :mod:`repro.netsim` should
           use :meth:`sleep_until` instead.
        """
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        scheduler = self._scheduler
        if scheduler is not None and scheduler.in_session():
            return scheduler.wait_until(self._now + seconds, priority=priority)
        self._now += seconds
        return self._now

    def sleep_until(self, deadline: float, *, priority: Optional[int] = None) -> float:
        """Sleep to an absolute simulated *deadline*; returns the new time.

        The scheduler-friendly waiting primitive: a deadline at or
        before the current time is a no-op on the serial path (the
        clock never moves backwards) and a zero-length *yield* inside a
        scheduler session — the session still cedes control to the
        event loop, so same-instant events from other sessions are not
        starved by busy-wait loops.
        """
        scheduler = self._scheduler
        if scheduler is not None and scheduler.in_session():
            return scheduler.wait_until(max(self._now, deadline),
                                        priority=priority)
        if deadline > self._now:
            self._now = deadline
        return self._now

    def __repr__(self) -> str:
        mode = "scheduled" if self._scheduler is not None else "serial"
        return f"SimClock(t={self._now:.6f}, {mode})"
