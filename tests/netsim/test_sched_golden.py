"""Golden scheduler journals: the event order is pinned, not re-derived.

``sched_golden.json`` holds, for each seeded scenario below, the
scheduler's ``(time, kind, label)`` journal, its final
:class:`~repro.netsim.SchedulerStats`, what the sessions and timer
callbacks observed, and every error ``run()`` raised.  It was recorded
on the strict hand-off scheduler, in which every suspension and every
session start was a round trip through the loop thread.  The scheduler
now dispatches from whichever thread the next event belongs to, and
this suite is the proof that it dispatches the same events in the same
order with the same counters.

The scenarios mix the shapes the dispatch rules must get right:
overlapping and disjoint sessions, zero-delay ``sleep_until`` yields,
same-instant DELIVERY vs TIMEOUT wake-ups, ``call_at`` feeders that
spawn sessions (the arrival feeder of ``drive_replay_sessions``),
``max_concurrent`` queueing, ``max_queue`` rejects, ``run(until)``
followed by ``run()``, failing sessions and raising timer callbacks.

Rewrite it (``pytest tests/netsim/test_sched_golden.py
--update-golden``) only for a change that is meant to alter event
order, and say so.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from repro.netsim import EventScheduler, Priority, SimClock

from .test_sched import bounded

FIXTURE = Path(__file__).resolve().parent / "sched_golden.json"

WAKEUPS = (Priority.DELIVERY, Priority.TIMEOUT)


class Boom(Exception):
    """The failure a scenario injects on purpose."""


def chain(clock, log, label, steps, fail_at=None):
    """A session that logs, then walks ``steps`` of ``(delay, priority)``;
    a ``None`` delay is a zero-length ``sleep_until(now)`` yield.  It
    raises :class:`Boom` after step ``fail_at`` when one is given."""

    def session():
        log.append(["begin", label, clock.now])
        for index, (delay, priority) in enumerate(steps):
            if delay is None:
                clock.sleep_until(clock.now, priority=priority)
            else:
                clock.advance(delay, priority=priority)
            log.append(["step", label, clock.now])
            if index == fail_at:
                raise Boom(f"{label} failed at step {index}")
        log.append(["end", label, clock.now])

    return session


def random_steps(rng, count, low, high, yields=0.0):
    steps = []
    for _ in range(count):
        priority = rng.choice(WAKEUPS)
        if rng.random() < yields:
            steps.append((None, rng.choice(list(Priority))))
        else:
            steps.append((round(rng.uniform(low, high), 6), priority))
    return steps


def spawn_many(scheduler, log, rng, count, start_span, steps_of, fail=()):
    clock = scheduler.clock
    for index in range(count):
        label = f"s{index}"
        steps = steps_of(index)
        scheduler.spawn(
            chain(clock, log, label, steps,
                  fail_at=len(steps) - 1 if index in fail else None),
            at=round(rng.uniform(0.0, start_span), 6) if start_span else 0.0,
            label=label,
            tiebreak=(rng.randrange(4), index),
        )


def feeder(scheduler, log, rng, arrivals, gap, steps_of, raise_at=None):
    """The ``drive_replay_sessions`` shape: each arrival is a DISPATCH
    timer that spawns one session and schedules the next arrival."""
    clock = scheduler.clock
    state = {"index": 0, "when": 0.0}

    def schedule_next():
        index = state["index"]
        if index >= arrivals:
            return
        state["index"] += 1
        state["when"] += round(rng.expovariate(1.0 / gap), 6)
        user = rng.randrange(8)
        steps = steps_of(index)

        def arrive():
            log.append(["arrive", index, clock.now, scheduler.in_session()])
            if index == raise_at:
                schedule_next()
                raise Boom(f"arrival {index} raised")
            scheduler.spawn(
                chain(clock, log, f"u{user}.q{index}", steps),
                label=f"u{user}.q{index}",
                tiebreak=(user, index),
            )
            schedule_next()

        scheduler.call_at(
            max(state["when"], clock.now), arrive,
            priority=Priority.DISPATCH, tiebreak=(user, index),
            label=f"arrival:u{user}",
        )

    schedule_next()


def boundaries(scheduler, log, width, count):
    """Self-rescheduling window-boundary timers."""
    clock = scheduler.clock
    left = {"n": count}

    def boundary():
        log.append(["window", clock.now, scheduler.in_session()])
        left["n"] -= 1
        if left["n"]:
            scheduler.call_at(clock.now + width, boundary, label="window")

    scheduler.call_at(width, boundary, label="window")


# ----------------------------------------------------------------------
# Scenarios: name -> (seed, setup) or (seed, (setup, scheduler
# options)).  A setup function schedules work on a fresh scheduler and
# returns the ``until`` values of the successive ``run()`` calls.
# ----------------------------------------------------------------------


def burst(scheduler, log, rng):
    spawn_many(
        scheduler, log, rng, 14, 0,
        lambda i: random_steps(rng, rng.randint(1, 3), 0.01, 0.2),
    )
    return [None]


def disjoint(scheduler, log, rng):
    """Each session ends (at most 0.8 s in) before the next starts."""
    clock = scheduler.clock
    start = 0.0
    for index in range(16):
        steps = random_steps(rng, rng.randint(1, 4), 0.01, 0.2)
        scheduler.spawn(chain(clock, log, f"d{index}", steps),
                        at=start, label=f"d{index}", tiebreak=(index,))
        start += round(rng.uniform(1.0, 2.0), 6)
    return [None]


def overlapping(scheduler, log, rng):
    spawn_many(
        scheduler, log, rng, 12, 2.0,
        lambda i: random_steps(rng, rng.randint(1, 5), 0.01, 0.8),
    )
    return [None]


def zero_delay_yields(scheduler, log, rng):
    clock = scheduler.clock
    spawn_many(
        scheduler, log, rng, 8, 1.0,
        lambda i: random_steps(rng, rng.randint(2, 5), 0.05, 0.3, yields=0.5),
    )
    for index in range(6):
        when = round(rng.uniform(0.0, 1.5), 6)
        scheduler.call_at(
            when,
            lambda i=index: log.append(["timer", i, clock.now]),
            priority=rng.choice(list(Priority)),
            tiebreak=(index,),
            label=f"t{index}",
        )
    return [None]


def same_instant_race(scheduler, log, rng):
    """Every session's wake-ups land on a shared 0.25 s grid, so
    DELIVERY and TIMEOUT resumes (and timers) collide at one instant."""
    clock = scheduler.clock
    for index in range(10):
        steps = [(0.25 * rng.randint(1, 3), rng.choice(WAKEUPS))
                 for _ in range(rng.randint(1, 3))]
        scheduler.spawn(chain(clock, log, f"r{index}", steps),
                        at=0.25 * rng.randint(0, 2), label=f"r{index}",
                        tiebreak=(rng.randrange(3), index))
    for index in range(4):
        scheduler.call_at(
            0.25 * rng.randint(1, 4),
            lambda i=index: log.append(["timer", i, clock.now]),
            priority=rng.choice(list(Priority)),
            tiebreak=(index,),
            label=f"t{index}",
        )
    return [None]


def arrival_feeder(gap):
    def setup(scheduler, log, rng):
        feeder(
            scheduler, log, rng, 30, gap,
            lambda i: random_steps(rng, rng.randint(1, 4), 0.005, 0.12,
                                   yields=0.1),
        )
        boundaries(scheduler, log, 1.0, 4)
        return [None]
    return setup


def admission_queue(cap):
    def setup(scheduler, log, rng):
        spawn_many(
            scheduler, log, rng, 12, 0.5,
            lambda i: random_steps(rng, rng.randint(1, 3), 0.05, 0.4),
        )
        return [None]
    return setup, {"max_concurrent": cap}


def admission_reject(cap, queue):
    def setup(scheduler, log, rng):
        feeder(
            scheduler, log, rng, 24, 0.05,
            lambda i: random_steps(rng, rng.randint(1, 3), 0.02, 0.3),
        )
        return [None]
    return setup, {"max_concurrent": cap, "max_queue": queue}


def run_until(scheduler, log, rng):
    feeder(
        scheduler, log, rng, 20, 0.2,
        lambda i: random_steps(rng, rng.randint(1, 4), 0.01, 0.5),
    )
    boundaries(scheduler, log, 0.75, 5)
    return [0.9, 1.6, 1.6, None]


def failing_session(scheduler, log, rng):
    spawn_many(
        scheduler, log, rng, 10, 1.0,
        lambda i: random_steps(rng, rng.randint(1, 3), 0.05, 0.5),
        fail={3, 7},
    )
    return [None, None, None]


def failing_session_queued(scheduler, log, rng):
    """A failure with sessions waiting for an admission slot: the
    failing session frees its slot without starting a queued one."""
    spawn_many(
        scheduler, log, rng, 9, 0.3,
        lambda i: random_steps(rng, rng.randint(1, 3), 0.05, 0.5),
        fail={1},
    )
    return [None, None]


def raising_timer(scheduler, log, rng):
    """An arrival callback raises after earlier sessions finished (so
    the next thread to dispatch it is whichever ran last)."""
    feeder(
        scheduler, log, rng, 12, 0.5,
        lambda i: random_steps(rng, rng.randint(1, 2), 0.01, 0.1),
        raise_at=5,
    )
    return [None, None]


def clock_in_callbacks(scheduler, log, rng):
    """Timer callbacks touch the clock: a zero advance and a
    ``sleep_until(now)`` are serial no-ops wherever the callback runs."""
    clock = scheduler.clock

    def touch(index):
        def callback():
            log.append(["touch", index, clock.now, scheduler.in_session(),
                        clock.advance(0.0), clock.sleep_until(clock.now)])
        return callback

    feeder(
        scheduler, log, rng, 10, 0.3,
        lambda i: random_steps(rng, rng.randint(1, 3), 0.01, 0.1),
    )
    for index in range(8):
        scheduler.call_at(round(rng.uniform(0.0, 3.0), 6), touch(index),
                          label=f"touch{index}")
    return [None]


def nested_spawns(scheduler, log, rng):
    """Sessions that spawn follow-up sessions and timers from inside."""
    clock = scheduler.clock

    def parent(index):
        def session():
            log.append(["parent", index, clock.now, scheduler.in_session()])
            clock.advance(round(rng.uniform(0.01, 0.2), 6))
            scheduler.spawn(
                chain(clock, log, f"c{index}",
                      random_steps(rng, 2, 0.01, 0.2, yields=0.3)),
                label=f"c{index}", tiebreak=(1, index),
            )
            scheduler.call_at(
                clock.now, lambda: log.append(["cb", index, clock.now]),
                priority=Priority.DELIVERY, label=f"cb{index}",
                tiebreak=(index,),
            )
            clock.sleep_until(clock.now, priority=Priority.TIMER)
            log.append(["parent-end", index, clock.now])
        return session

    for index in range(8):
        scheduler.spawn(parent(index), at=round(rng.uniform(0.0, 1.0), 6),
                        label=f"p{index}", tiebreak=(0, index))
    return [None]


SCENARIOS = {
    "burst-at-zero": (1, burst),
    "disjoint": (2, disjoint),
    "overlapping-a": (3, overlapping),
    "overlapping-b": (4, overlapping),
    "overlapping-c": (5, overlapping),
    "zero-delay-yields-a": (6, zero_delay_yields),
    "zero-delay-yields-b": (7, zero_delay_yields),
    "same-instant-race": (8, same_instant_race),
    "feeder-sparse": (9, arrival_feeder(0.4)),
    "feeder-dense": (10, arrival_feeder(0.05)),
    "feeder-mixed": (11, arrival_feeder(0.12)),
    "admission-queue-2": (12, admission_queue(2)),
    "admission-queue-1": (13, admission_queue(1)),
    "admission-reject-1-0": (14, admission_reject(1, 0)),
    "admission-reject-2-1": (15, admission_reject(2, 1)),
    "run-until": (16, run_until),
    "failing-session": (18, failing_session),
    "failing-session-queued": (19, (failing_session_queued,
                                    {"max_concurrent": 2})),
    "raising-timer": (20, raising_timer),
    "clock-in-callbacks": (21, clock_in_callbacks),
    "nested-spawns": (22, nested_spawns),
}


def play(name):
    """Run one scenario; returns its JSON-ready record."""
    seed, entry = SCENARIOS[name]
    setup, options = entry if isinstance(entry, tuple) else (entry, {})
    rng = random.Random(seed)
    journal, log, errors = [], [], []
    rejected = []
    scheduler = EventScheduler(
        SimClock(), journal=journal,
        on_reject=lambda session: rejected.append(session.label),
        **options,
    )
    with scheduler:
        for until in setup(scheduler, log, rng):
            try:
                scheduler.run(until=until)
            except Exception as error:  # noqa: BLE001 - recorded, compared
                cause = error.__cause__
                errors.append([type(error).__name__, str(error),
                               type(cause).__name__ if cause else None])
            log.append(["ran", until, scheduler.now, scheduler.pending()])
    return {
        "journal": journal,
        "stats": dataclasses.asdict(scheduler.stats),
        "log": log,
        "errors": errors,
        "rejected": rejected,
    }


def load_fixture():
    if not FIXTURE.exists():
        return {}
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def write_fixture(golden):
    """One scenario per line, so a diff names the scenarios it moved."""
    lines = [
        f"  {json.dumps(name)}: "
        f"{json.dumps(golden[name], separators=(',', ':'))}"
        for name in sorted(golden)
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scheduler_reproduces_the_golden_journal(name, update_golden):
    # JSON round trip, so tuples and lists compare alike.
    observed = json.loads(json.dumps(bounded(play, name)))
    if update_golden:
        golden = load_fixture()
        golden[name] = observed
        write_fixture(golden)
        return
    expected = load_fixture()[name]
    assert observed["journal"] == expected["journal"]
    assert observed["stats"] == expected["stats"]
    assert observed["log"] == expected["log"]
    assert observed["errors"] == expected["errors"]
    assert observed["rejected"] == expected["rejected"]


def test_fixture_covers_every_scenario():
    assert sorted(load_fixture()) == sorted(SCENARIOS)
    assert len(SCENARIOS) >= 20
