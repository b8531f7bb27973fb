"""The event scheduler's determinism contract.

Four load-bearing properties:

* **Total order** — events dispatch by ``(time, priority, tiebreak,
  seq)``; any legal heap-insertion order of the same logical events
  produces the identical journal (Hypothesis permutation test).
* **Race semantics** — a response delivery at exactly the timeout
  instant wins (the query is answered, not dropped); regression-pinned
  because the network layer relies on it.
* **Strict hand-off** — exactly one runnable thread, bounded admission,
  pooled workers; sessions interleave only at clock suspensions.
* **Dispatch from the thread the next event belongs to** — a session
  whose own wake-up is next runs ahead without waking the loop, and a
  worker whose session finished dispatches starts and timers itself, so
  a stream of disjoint sessions wakes the loop O(1) times, not O(N).
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import (
    EventScheduler,
    Priority,
    SchedulerError,
    SimClock,
)

#: Seconds a scheduler test may take before it is called hung.
TIMEOUT_S = 30.0


def bounded(fn, *args):
    """Run ``fn(*args)`` on its own thread and return its result; fail
    if it outlives :data:`TIMEOUT_S` instead of hanging the suite."""
    box = {}

    def target():
        try:
            box["value"] = fn(*args)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), f"{fn.__name__} hung"
    if "error" in box:
        raise box["error"]
    return box.get("value")


def make_scheduler(max_concurrent=256):
    journal = []
    scheduler = EventScheduler(
        SimClock(), max_concurrent=max_concurrent, journal=journal
    )
    return scheduler, journal


# ----------------------------------------------------------------------
# Ordering
# ----------------------------------------------------------------------


def test_sessions_interleave_at_clock_suspensions():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    log = []

    def session(name, first, second):
        def run():
            log.append((name, clock.now, "start"))
            clock.advance(first)
            log.append((name, clock.now, "mid"))
            clock.advance(second)
            log.append((name, clock.now, "end"))
        return run

    with scheduler:
        scheduler.spawn(session("a", 0.5, 1.0), at=0.0, tiebreak=(0,))
        scheduler.spawn(session("b", 0.5, 1.0), at=0.25, tiebreak=(1,))
        scheduler.run()

    assert log == [
        ("a", 0.0, "start"),
        ("b", 0.25, "start"),
        ("a", 0.5, "mid"),
        ("b", 0.75, "mid"),
        ("a", 1.5, "end"),
        ("b", 1.75, "end"),
    ]


def test_clock_is_monotonic_and_jumps_to_event_times():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    seen = []
    with scheduler:
        for when in (3.0, 1.0, 2.0):
            scheduler.call_at(when, lambda w=when: seen.append((w, clock.now)))
        scheduler.run()
    assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert clock.now == 3.0


def test_delivery_beats_timeout_at_same_instant():
    """The timeout-vs-response race: a packet arriving exactly at the
    deadline is delivered first, so the waiter sees the answer."""
    scheduler, _ = make_scheduler()
    order = []
    with scheduler:
        scheduler.call_at(
            5.0, lambda: order.append("timeout"), priority=Priority.TIMEOUT
        )
        scheduler.call_at(
            5.0, lambda: order.append("delivery"), priority=Priority.DELIVERY
        )
        scheduler.call_at(
            5.0, lambda: order.append("timer"), priority=Priority.TIMER
        )
        scheduler.call_at(
            5.0, lambda: order.append("dispatch"), priority=Priority.DISPATCH
        )
        scheduler.run()
    assert order == ["delivery", "timeout", "dispatch", "timer"]


def test_timeout_vs_response_race_in_sessions():
    """Session-level regression: one session's delivery resume and
    another's timeout resume collide at t=1.0; the delivery must run
    first regardless of spawn order."""
    for flip in (False, True):
        scheduler, _ = make_scheduler()
        clock = scheduler.clock
        order = []

        def delivery():
            clock.advance(1.0, priority=Priority.DELIVERY)
            order.append("delivery")

        def timeout():
            clock.advance(1.0, priority=Priority.TIMEOUT)
            order.append("timeout")

        with scheduler:
            sessions = [("d", delivery), ("t", timeout)]
            if flip:
                sessions.reverse()
            for label, fn in sessions:
                scheduler.spawn(fn, label=label)
            scheduler.run()
        assert order == ["delivery", "timeout"], f"flip={flip}"


def test_tiebreak_overrides_insertion_order():
    scheduler, _ = make_scheduler()
    seen = []
    with scheduler:
        for user in (3, 1, 2, 0):
            scheduler.call_at(
                1.0,
                lambda u=user: seen.append(u),
                priority=Priority.DISPATCH,
                tiebreak=(user,),
            )
        scheduler.run()
    assert seen == [0, 1, 2, 3]


def test_seq_is_fifo_for_order_indifferent_events():
    scheduler, _ = make_scheduler()
    seen = []
    with scheduler:
        for i in range(4):
            scheduler.call_at(1.0, lambda i=i: seen.append(i))
        scheduler.run()
    assert seen == [0, 1, 2, 3]


def test_zero_delay_sleep_until_yields_to_same_time_events():
    """sleep_until(now) is a zero-length suspension: same-instant
    higher-priority events run before the session resumes."""
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    order = []

    def session():
        order.append("before")
        scheduler.call_at(
            clock.now, lambda: order.append("delivery"),
            priority=Priority.DELIVERY,
        )
        clock.sleep_until(clock.now, priority=Priority.TIMER)
        order.append("after")

    with scheduler:
        scheduler.spawn(session)
        scheduler.run()
    assert order == ["before", "delivery", "after"]


def test_sleep_until_past_deadline_clamps_to_now():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    readings = []

    def session():
        clock.advance(2.0)
        readings.append(clock.sleep_until(1.0))  # already past

    with scheduler:
        scheduler.spawn(session)
        scheduler.run()
    assert readings == [2.0]
    assert clock.now == 2.0


# ----------------------------------------------------------------------
# Hypothesis: insertion order is irrelevant given tiebreaks
# ----------------------------------------------------------------------

# Logical events: (time-in-quarters, priority, tiebreak-id).  Times are
# dyadic so float comparisons are exact.
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(list(Priority)),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=12,
    unique=True,
)


def run_journal(events, order):
    scheduler, journal = make_scheduler()
    with scheduler:
        for index in order:
            quarters, priority, tie = events[index]
            scheduler.call_at(
                quarters / 4.0,
                lambda: None,
                priority=priority,
                tiebreak=(tie,),
                label=f"e{tie}",
            )
        scheduler.run()
    return journal


@settings(max_examples=60, deadline=None)
@given(events=events_strategy, data=st.data())
def test_any_insertion_order_yields_identical_journal(events, data):
    baseline = run_journal(events, range(len(events)))
    for seed in (1, 2, 3):
        permutation = data.draw(
            st.permutations(range(len(events))), label=f"perm{seed}"
        )
        assert run_journal(events, permutation) == baseline


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_session_spawn_order_is_irrelevant_given_tiebreaks(data):
    """Full-stack variant: sessions that advance the clock produce the
    same journal whatever order they were spawned in."""
    specs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # start quarters
                st.integers(min_value=1, max_value=4),  # advance quarters
            ),
            min_size=1,
            max_size=6,
        )
    )

    def run_once(order):
        scheduler, journal = make_scheduler()
        clock = scheduler.clock

        def make(tie, advance_quarters):
            def session():
                clock.advance(advance_quarters / 4.0)
            return session

        with scheduler:
            for tie in order:
                start, advance = specs[tie]
                scheduler.spawn(
                    make(tie, advance),
                    at=start / 4.0,
                    label=f"s{tie}",
                    tiebreak=(tie,),
                )
            scheduler.run()
        return journal

    baseline = run_once(range(len(specs)))
    permutation = data.draw(st.permutations(range(len(specs))))
    assert run_once(permutation) == baseline


# ----------------------------------------------------------------------
# Admission control and the thread pool
# ----------------------------------------------------------------------


def test_admission_cap_bounds_concurrency_and_queues_fifo():
    scheduler, journal = make_scheduler(max_concurrent=2)
    clock = scheduler.clock
    finished = []

    def make(tie):
        def session():
            clock.advance(1.0)
            finished.append(tie)
        return session

    with scheduler:
        for tie in range(5):
            scheduler.spawn(make(tie), at=0.0, tiebreak=(tie,), label=f"s{tie}")
        stats = scheduler.run()

    assert stats.peak_active == 2
    assert stats.queued == 3
    assert stats.completed == 5
    # Pool threads are reused: never more than the admission cap.
    assert stats.threads_created <= 2
    # FIFO through the queue preserves tiebreak order.
    assert finished == [0, 1, 2, 3, 4]
    assert [label for _, kind, label in journal if kind == "queued"] == [
        "s2", "s3", "s4",
    ]


def test_pool_threads_are_reused_across_sessions():
    scheduler, _ = make_scheduler(max_concurrent=4)
    clock = scheduler.clock
    with scheduler:
        for tie in range(20):
            scheduler.spawn(
                lambda: clock.advance(0.25), at=tie * 1.0, tiebreak=(tie,)
            )
        stats = scheduler.run()
    assert stats.completed == 20
    assert stats.threads_created == 1  # sessions never overlap here


# ----------------------------------------------------------------------
# Failure and misuse
# ----------------------------------------------------------------------


def test_session_exception_surfaces_as_scheduler_error():
    scheduler, _ = make_scheduler()

    def boom():
        raise ValueError("lost my zone")

    with scheduler:
        scheduler.spawn(boom, label="broken")
        with pytest.raises(SchedulerError, match="broken"):
            scheduler.run()
    assert scheduler.stats.failed == 1


def test_failure_cause_is_preserved():
    scheduler, _ = make_scheduler()

    def boom():
        raise KeyError("cache")

    with scheduler:
        scheduler.spawn(boom)
        with pytest.raises(SchedulerError) as info:
            scheduler.run()
    assert isinstance(info.value.__cause__, KeyError)


def test_wait_until_outside_session_is_rejected():
    scheduler, _ = make_scheduler()
    with scheduler:
        with pytest.raises(SchedulerError):
            scheduler.wait_until(1.0)


def test_scheduling_in_the_past_is_rejected():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    with scheduler:
        scheduler.call_at(5.0, lambda: None)
        scheduler.run()
        assert clock.now == 5.0
        with pytest.raises(ValueError):
            scheduler.call_at(4.0, lambda: None)


def test_run_until_stops_before_later_events():
    scheduler, _ = make_scheduler()
    seen = []
    with scheduler:
        scheduler.call_at(1.0, lambda: seen.append(1.0))
        scheduler.call_at(10.0, lambda: seen.append(10.0))
        scheduler.run(until=5.0)
        assert seen == [1.0]
        assert scheduler.pending() == 1
        scheduler.run()
    assert seen == [1.0, 10.0]


def test_clock_rejects_second_scheduler_and_unbinds_on_close():
    clock = SimClock()
    scheduler = EventScheduler(clock)
    with pytest.raises(Exception):
        EventScheduler(clock)
    scheduler.close()
    assert clock.scheduler is None
    # After close, serial semantics return.
    clock.advance(1.5)
    assert clock.now == 1.5
    # And a fresh scheduler can bind again.
    with EventScheduler(clock) as second:
        assert clock.scheduler is second


def test_serial_clock_without_scheduler_is_untouched():
    clock = SimClock()
    clock.advance(2.0)
    clock.sleep_until(3.0)
    clock.sleep_until(1.0)  # past: clamps, no-op
    assert clock.now == 3.0


# ----------------------------------------------------------------------
# Hand-offs: a thread wakes another only for that thread's event
# ----------------------------------------------------------------------


class CountingEvent:
    """Stands in for the scheduler's control event and counts how often
    a session thread wakes the loop through it."""

    def __init__(self, event):
        self.event = event
        self.sets = 0

    def set(self):
        self.sets += 1
        self.event.set()

    def wait(self, timeout=None):
        return self.event.wait(timeout)

    def clear(self):
        self.event.clear()


def count_loop_wakeups(scheduler):
    counter = CountingEvent(scheduler._control)
    scheduler._control = counter
    return counter


def feed_disjoint_sessions(scheduler, count):
    """A ``call_at`` arrival feeder, as ``drive_replay_sessions`` has: each
    arrival spawns a two-step session and schedules the next arrival
    one second later, after that session has finished."""
    clock = scheduler.clock
    state = {"index": 0}

    def session():
        clock.advance(0.1)
        clock.sleep_until(clock.now + 0.2, priority=Priority.TIMEOUT)

    def arrive():
        index = state["index"]
        state["index"] += 1
        scheduler.spawn(session, label=f"q{index}", tiebreak=(index,))
        if state["index"] < count:
            scheduler.call_at(clock.now + 1.0, arrive,
                              priority=Priority.DISPATCH, label="arrival")

    scheduler.call_at(0.0, arrive, priority=Priority.DISPATCH, label="arrival")


@pytest.mark.parametrize("count", [10, 200])
def test_disjoint_session_stream_wakes_the_loop_a_constant_number_of_times(count):
    scheduler, journal = make_scheduler()
    wakeups = count_loop_wakeups(scheduler)

    def play():
        with scheduler:
            feed_disjoint_sessions(scheduler, count)
            return scheduler.run()

    stats = bounded(play)
    assert stats.completed == count
    assert stats.resumes == 2 * count
    assert stats.timers == count
    assert stats.threads_created == 1
    # The loop starts the first session; its worker then runs every
    # later arrival, start and wake-up itself and wakes the loop once,
    # when the queue is empty.
    assert wakeups.sets == 1
    assert [kind for _, kind, _ in journal] == [
        "timer", "start", "resume", "resume",
    ] * count


def test_a_session_whose_wake_up_is_not_next_still_suspends():
    scheduler, journal = make_scheduler()
    clock = scheduler.clock
    wakeups = count_loop_wakeups(scheduler)
    log = []

    def session(name, delay):
        def run():
            log.append((name, clock.now))
            clock.advance(delay)
            log.append((name, clock.now))
        return run

    def play():
        with scheduler:
            scheduler.spawn(session("a", 1.0), at=0.0, label="a", tiebreak=(0,))
            scheduler.spawn(session("b", 0.25), at=0.25, label="b", tiebreak=(1,))
            scheduler.run()

    bounded(play)
    assert journal == [
        (0.0, "start", "a"),
        (0.25, "start", "b"),
        (0.5, "resume", "b"),
        (1.0, "resume", "a"),
    ]
    assert log == [("a", 0.0), ("b", 0.25), ("b", 0.5), ("a", 1.0)]
    # a suspends (b starts first); b runs ahead to its wake-up, finishes
    # and wakes the loop for a's wake-up; a finishes on an empty queue.
    assert wakeups.sets == 3


# ----------------------------------------------------------------------
# Worker-path semantics
# ----------------------------------------------------------------------


def test_timer_raising_on_a_free_worker_surfaces_from_run():
    scheduler, journal = make_scheduler()
    clock = scheduler.clock
    seen = {}
    error = ValueError("window boundary broke")

    def boom():
        seen["thread"] = threading.current_thread()
        raise error

    def play():
        with scheduler:
            scheduler.spawn(lambda: clock.advance(0.1), label="s0")
            scheduler.call_at(1.0, boom, label="boom")
            scheduler.call_at(2.0, lambda: None, label="later")
            seen["loop"] = threading.current_thread()
            with pytest.raises(ValueError) as info:
                scheduler.run()
            seen["raised"] = info.value
            (worker,) = scheduler._workers
            # The worker survives and the loop still drives it.
            assert worker.is_alive()
            assert clock.now == 1.0 and scheduler.pending() == 1
            scheduler.spawn(lambda: clock.advance(0.5), at=3.0, label="s1")
            return scheduler.run()

    stats = bounded(play)
    assert seen["thread"] is not seen["loop"]  # a worker dispatched it
    assert seen["raised"] is error
    assert stats.completed == 2 and stats.threads_created == 1
    assert journal == [
        (0.0, "start", "s0"),
        (0.1, "resume", "s0"),
        (1.0, "timer", "boom"),
        (2.0, "timer", "later"),
        (3.0, "start", "s1"),
        (3.5, "resume", "s1"),
    ]


def test_workers_never_dispatch_past_run_until():
    scheduler, journal = make_scheduler()
    clock = scheduler.clock
    log = []

    def first():
        clock.advance(0.5)
        log.append(("first", clock.now))
        clock.advance(2.0)  # wakes at 2.5, past until
        log.append(("first", clock.now))

    def play():
        with scheduler:
            scheduler.spawn(first, label="first")
            scheduler.spawn(lambda: log.append(("second", clock.now)),
                            at=1.0, label="second")
            scheduler.spawn(lambda: log.append(("third", clock.now)),
                            at=1.5, label="third")
            scheduler.call_at(1.2, lambda: log.append(("timer", clock.now)),
                              label="timer")
            scheduler.run(until=1.1)
            stopped = (clock.now, scheduler.pending(), list(log),
                       list(journal))
            scheduler.run()
            return stopped

    now, pending, log_at_until, journal_at_until = bounded(play)
    # The free worker that ran "second" stops at the 1.2 timer; "first"
    # suspends instead of running ahead to 2.5.
    assert now == 1.0
    assert pending == 3
    assert log_at_until == [("first", 0.5), ("second", 1.0)]
    assert journal_at_until == [
        (0.0, "start", "first"),
        (0.5, "resume", "first"),
        (1.0, "start", "second"),
    ]
    assert log == [("first", 0.5), ("second", 1.0), ("timer", 1.2),
                   ("third", 1.5), ("first", 2.5)]


def test_timer_callbacks_are_never_in_a_session():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    seen = []

    def callback(name, delta):
        def run():
            seen.append((name, scheduler.in_session(), clock.now,
                         clock.advance(delta)))
        return run

    def play():
        with scheduler:
            seen.append(("loop-thread", threading.current_thread()))
            scheduler.spawn(lambda: clock.advance(0.1), label="s")
            # Runs on the loop: the session is suspended until 0.1.
            scheduler.call_at(0.0, callback("on-loop", 0.05), label="a")
            # Runs on the free worker once the session has finished.
            scheduler.call_at(1.0, callback("on-worker", 0.5), label="b")
            scheduler.call_at(2.0, lambda: seen.append(
                ("after", threading.current_thread(), clock.now)), label="c")
            scheduler.run()

    bounded(play)
    loop_thread = seen[0][1]
    assert seen[1] == ("on-loop", False, 0.0, 0.05)
    # A callback's advance mutates the clock on whatever thread runs it.
    assert seen[2] == ("on-worker", False, 1.0, 1.5)
    name, thread, now = seen[3]
    assert name == "after" and now == 2.0
    assert thread is not loop_thread  # the worker really ran the timers


def test_close_after_a_failed_run_aborts_suspended_sessions():
    scheduler, _ = make_scheduler()
    clock = scheduler.clock
    log = []

    def sleeper():
        try:
            clock.advance(5.0)
            log.append("resumed")
        finally:
            log.append("unwound")

    def boom():
        clock.advance(0.5)
        raise KeyError("cache")

    def play():
        scheduler.spawn(sleeper, label="sleeper")
        scheduler.spawn(boom, at=1.0, label="boom")
        with pytest.raises(SchedulerError, match="boom"):
            scheduler.run()
        workers = list(scheduler._workers)
        assert len(workers) == 2
        scheduler.close()
        return workers

    workers = bounded(play)
    assert log == ["unwound"]
    assert not any(worker.is_alive() for worker in workers)
    assert scheduler.stats.failed == 1
    assert scheduler.clock.scheduler is None
