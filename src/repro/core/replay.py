"""Population-scale replay: many concurrent stubs, streaming results.

This is the driver the event scheduler exists for.  One shared universe
(one resolver, one cache, one registry) serves a *population* of stub
clients whose queries arrive on a DITL-shaped Poisson process
(:func:`repro.workloads.iter_replay_arrivals`); each arrival becomes a
resumable session on the :class:`~repro.netsim.sched.EventScheduler`, so
resolutions overlap in simulated time — shared-cache contention, retry
backoff under load, and admission queueing all behave the way the
paper's busy recursive resolver would.

Memory stays flat at any query volume, by construction:

* the universe's capture is swapped for a
  :class:`~repro.netsim.StreamingCapture` — no packet is ever retained;
  the replay's observer classifies DLV traffic Case-1/Case-2 *online*
  at the wire, exactly where the paper's registry tap sits, by handing
  each packet to :meth:`~repro.core.leakage.LeakageClassifier.classify`
  — the rule the batch report applies, so every window's
  ``case1_queries + case2_queries`` equals its ``dlv_queries`` and a
  TLD-level or hashed probe is a Case-2 query that names no domain;
* arrivals are generated lazily, one pending arrival event at a time;
* results accumulate into fixed-width
  :class:`~repro.core.parallel.ReplayWindow` values, closed on window
  boundaries by scheduler timers and folded with the monoid merge —
  the streaming analogue of the sharded runner's
  :func:`~repro.core.parallel.merge_shard_results`.

The session loop itself lives in :func:`drive_replay_sessions`, a
name-source-agnostic driver shared with the chaos layer
(:mod:`repro.core.chaos_replay`): the population replay feeds it
popularity-weighted browsing profiles, the chaos replay feeds it the
matrix cell's domain sample while a :class:`~repro.netsim.FaultPlan`
outage or a byzantine persona is live on the same universe.  Each
closed window carries the availability extension of the monoid —
SERVFAIL/timeout split, resolver retry and served-stale deltas,
admission queue/shed counts, and the mergeable latency histogram.

The other entry point, :func:`run_experiment_in_session`, routes an
unmodified :class:`~repro.core.experiment.LeakageExperiment` through the
scheduler as a single session.  With one session there is nothing to
interleave, every suspension resumes at exactly the float the serial
path would have computed, and the result — fingerprint, capture rows,
trace JSONL — is byte-identical to a plain serial run.  That equivalence
(enforced by ``tests/core/test_replay.py``) is what certifies the
scheduler as a refactor rather than a fork of the simulation's
semantics.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..dnscore import Name, RCode, RRType
from ..netsim import EventScheduler, Priority, SchedulerStats, StreamingCapture
from ..netsim.network import NetworkError, QueryTimeout
from ..resolver import ResolverConfig, StubClient, correct_bind_config
from ..workloads import DitlParams, Universe, generate_trace, iter_replay_arrivals
from .experiment import ExperimentResult, LeakageExperiment
from .leakage import LeakageCase, LeakageClassifier
from .metrics import MetricsRegistry
from .parallel import (
    LATENCY_BUCKET_BOUNDS,
    ReplayWindow,
    empty_replay_window,
    latency_bucket_index,
    merge_replay_windows,
)
from .population import make_profiles
from .setup import standard_universe, standard_workload


@dataclasses.dataclass(frozen=True)
class ReplayParams:
    """Knobs of one population replay."""

    #: Concurrent stub clients sharing the resolver.
    users: int = 8
    #: Total stub queries to replay.
    queries: int = 2_000
    #: Domain population size (the workload's Alexa-like sample).
    domains: int = 60
    #: Background DLV registry entries beyond the workload's deposits.
    registry_filler: int = 300
    #: Browsing-profile size per user (popularity-weighted sample).
    domains_per_user: int = 20
    #: Mean per-user query rate (queries / simulated second) before the
    #: DITL diurnal modulation.
    per_user_qps: float = 0.05
    #: Aggregation-window width in simulated seconds.
    window_seconds: float = 300.0
    #: Admission cap: in-flight sessions beyond this queue FIFO.
    max_concurrent: int = 64
    #: Bound on the admission FIFO itself: arrivals beyond it are shed
    #: (counted as failed queries and ``admission_rejected``).  ``None``
    #: keeps the queue unbounded — the pre-chaos behaviour.
    max_queue: Optional[int] = None
    seed: int = 2017


@dataclasses.dataclass
class PopulationReplayResult:
    """What one population replay produced — windows, never packets."""

    params: ReplayParams
    #: Closed aggregation windows, in simulated-time order.
    windows: List[ReplayWindow]
    #: The monoid fold of every window.
    overall: ReplayWindow
    scheduler: SchedulerStats
    #: Real seconds the replay took to execute.
    wall_seconds: float

    @property
    def simulated_seconds(self) -> float:
        return self.overall.duration

    @property
    def simulated_qps(self) -> float:
        """Completed stub queries per simulated second."""
        duration = self.overall.duration
        return self.overall.queries / duration if duration else 0.0

    @property
    def replay_rate(self) -> float:
        """Completed stub queries per *wall* second — the throughput
        number the benchmarks track."""
        return self.overall.queries / self.wall_seconds if self.wall_seconds else 0.0

    def describe(self) -> str:
        overall = self.overall
        return (
            f"{self.params.users} users, {overall.queries} queries over "
            f"{overall.duration:,.0f} simulated s "
            f"({self.simulated_qps:.2f} sim-qps, "
            f"{self.replay_rate:,.0f} q/wall-s); "
            f"leak-rate {overall.leak_rate:.3f} "
            f"({overall.case2_queries} case-2, "
            f"{len(overall.leaked_domains)} domains), "
            f"cache-hit {overall.cache_hit_rate:.1%}, "
            f"peak in-flight {self.scheduler.peak_active}"
        )


class _WindowAccum:
    """Mutable scratch for the window being filled (O(1) + leak set)."""

    __slots__ = (
        "start", "queries", "failures", "servfails", "timeouts",
        "dlv", "case1", "case2", "leaked",
        "packets", "wire_bytes", "dropped", "latency_sum", "latency_max",
        "buckets", "started", "completed",
    )

    def __init__(self, start: float):
        self.start = start
        self.queries = 0
        self.failures = 0
        self.servfails = 0
        self.timeouts = 0
        self.dlv = 0
        self.case1 = 0
        self.case2 = 0
        self.leaked: set = set()
        self.packets = 0
        self.wire_bytes = 0
        self.dropped = 0
        self.latency_sum = 0.0
        self.latency_max = 0.0
        self.buckets = [0] * len(LATENCY_BUCKET_BOUNDS)
        self.started = 0
        self.completed = 0

    def freeze(
        self,
        end: float,
        cache_hits: int,
        cache_misses: int,
        retries: int,
        stale_served: int,
        queued: int,
        rejected: int,
    ) -> ReplayWindow:
        return ReplayWindow(
            start=self.start,
            end=end,
            queries=self.queries,
            failures=self.failures,
            dlv_queries=self.dlv,
            case1_queries=self.case1,
            case2_queries=self.case2,
            leaked_domains=frozenset(self.leaked),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            packets=self.packets,
            wire_bytes=self.wire_bytes,
            dropped=self.dropped,
            latency_sum=self.latency_sum,
            latency_max=self.latency_max,
            sessions_started=self.started,
            sessions_completed=self.completed,
            servfails=self.servfails,
            timeouts=self.timeouts,
            retries=retries,
            stale_served=stale_served,
            admission_queued=queued,
            admission_rejected=rejected,
            latency_buckets=tuple(self.buckets),
        )


@dataclasses.dataclass
class DriveOutcome:
    """What one session-drive produced, before entry-point packaging."""

    windows: List[ReplayWindow]
    scheduler: SchedulerStats
    #: The shared resolver the sessions exercised — still attached to
    #: the universe, so callers can read engine/lookaside counters.
    resolver: object
    metrics: MetricsRegistry


def drive_replay_sessions(
    universe: Universe,
    config: ResolverConfig,
    next_name: Callable[[int], Name],
    *,
    users: int,
    per_user_qps: float,
    queries: int,
    window_seconds: float,
    max_concurrent: int,
    max_queue: Optional[int] = None,
    seed: int,
    progress: Optional[Callable[[ReplayWindow], None]] = None,
) -> DriveOutcome:
    """Drive a DITL-shaped arrival stream of concurrent stub sessions
    against *universe*'s resolver, folding availability-extended
    :class:`ReplayWindow` values on window boundaries.

    ``next_name(user)`` supplies the name each scheduled arrival will
    query — the one policy point where the population replay (browsing
    profiles) and the chaos replay (matrix cell sample) differ.  The
    caller may have scripted faults or deployed personas on *universe*
    beforehand; this driver attaches telemetry, swaps in the streaming
    capture, and runs the event loop, so per-window counters include
    the resolver's retry/served-stale deltas and the admission queue's
    deferrals and sheds.
    """
    metrics = MetricsRegistry()
    universe.attach_telemetry(metrics=metrics)

    classify = LeakageClassifier(
        universe.registry_zone, universe.registry_address
    ).classify
    accum = _WindowAccum(0.0)

    def observe(record) -> None:
        accum.packets += 1
        accum.wire_bytes += record.wire_size
        if record.dropped:
            accum.dropped += 1
        item = classify(record)
        if item is None:
            return
        accum.dlv += 1
        if item.case is LeakageCase.CASE1:
            accum.case1 += 1
        else:
            accum.case2 += 1
            if item.leaked_domain is not None:
                accum.leaked.add(item.leaked_domain.to_text())

    # Swap the list capture for the streaming one *before* any traffic.
    universe.network.capture = StreamingCapture(observer=observe)

    resolver = universe.make_resolver(config)
    stubs: Dict[int, StubClient] = {}

    clock = universe.clock
    windows: List[ReplayWindow] = []
    hits_counter = metrics.counter("cache.hits")
    misses_counter = metrics.counter("cache.misses")
    retries_counter = metrics.counter("engine.retries")
    stale_counter = metrics.counter("engine.stale_served")
    # Running totals at the last window's close, in ``freeze``'s order:
    # cache hits and misses, retries, stale answers, admissions queued
    # and rejected.  A window's deltas are the current totals minus these.
    seen = (0, 0, 0, 0, 0, 0)
    arrivals = iter_replay_arrivals(
        generate_trace(DitlParams(seed=seed, scale=0.001)),
        users=users,
        per_user_qps=per_user_qps,
        limit=queries,
        seed=seed + 2,
    )
    state = {"dispatched": 0, "completed": 0, "arrivals_done": False}

    def on_reject(session) -> None:
        # A shed arrival is a query the population issued and the
        # service refused: it fails without a latency sample, and the
        # dispatch ledger must still advance or the loop never drains.
        accum.queries += 1
        accum.failures += 1
        state["completed"] += 1

    with EventScheduler(
        clock,
        max_concurrent=max_concurrent,
        max_queue=max_queue,
        on_reject=on_reject,
    ) as scheduler:

        def close_window(end: float) -> None:
            nonlocal accum, seen
            totals = (
                hits_counter.value,
                misses_counter.value,
                retries_counter.value,
                stale_counter.value,
                scheduler.stats.queued,
                scheduler.stats.rejected,
            )
            window = accum.freeze(
                end, *(total - before for total, before in zip(totals, seen))
            )
            seen = totals
            windows.append(window)
            accum = _WindowAccum(end)
            if progress is not None:
                progress(window)

        def finished() -> bool:
            return (
                state["arrivals_done"]
                and state["completed"] == state["dispatched"]
            )

        def make_session(user: int, name: Name) -> Callable[[], None]:
            def session() -> None:
                stub = stubs[user]
                begun = clock.now
                failed = False
                servfailed = False
                timed_out = False
                try:
                    response = stub.query(name, RRType.A, dnssec_ok=True)
                    if response.rcode is RCode.SERVFAIL:
                        failed = servfailed = True
                except QueryTimeout:
                    failed = timed_out = True
                except NetworkError:
                    failed = True
                accum.queries += 1
                if failed:
                    accum.failures += 1
                if servfailed:
                    accum.servfails += 1
                if timed_out:
                    accum.timeouts += 1
                latency = clock.now - begun
                accum.latency_sum += latency
                accum.latency_max = max(accum.latency_max, latency)
                accum.buckets[latency_bucket_index(latency)] += 1
                accum.completed += 1
                state["completed"] += 1
            return session

        def schedule_next_arrival() -> None:
            try:
                when, user = next(arrivals)
            except StopIteration:
                state["arrivals_done"] = True
                return
            name = next_name(user)
            index = state["dispatched"]
            state["dispatched"] += 1

            def arrive() -> None:
                if user not in stubs:
                    stubs[user] = universe.make_stub(resolver)
                accum.started += 1
                scheduler.spawn(
                    make_session(user, name),
                    label=f"u{user}.q{index}",
                    tiebreak=(user, index),
                )
                schedule_next_arrival()

            scheduler.call_at(
                max(when, clock.now), arrive,
                priority=Priority.DISPATCH, tiebreak=(user, index),
                label=f"arrival:u{user}",
            )

        def boundary() -> None:
            close_window(clock.now)
            if not finished():
                scheduler.call_at(
                    clock.now + window_seconds, boundary,
                    label="window",
                )

        schedule_next_arrival()
        scheduler.call_at(window_seconds, boundary, label="window")
        try:
            stats = scheduler.run()
        finally:
            # Each reschedules itself by name, so its closure cell holds
            # the function itself: a cycle through the universe, the
            # resolver and the stubs that only the cyclic collector frees.
            schedule_next_arrival = boundary = None

    if accum.queries or accum.packets or not windows:
        close_window(clock.now)

    return DriveOutcome(
        windows=windows, scheduler=stats, resolver=resolver, metrics=metrics
    )


def fold_windows(windows: Sequence[ReplayWindow]) -> ReplayWindow:
    """The monoid fold of *windows* (identity for an empty sequence)."""
    overall = empty_replay_window()
    for window in windows:
        overall = merge_replay_windows(overall, window)
    return overall


def run_population_replay(
    params: Optional[ReplayParams] = None,
    config: Optional[ResolverConfig] = None,
    progress: Optional[Callable[[ReplayWindow], None]] = None,
) -> PopulationReplayResult:
    """Replay a DITL-shaped query stream from ``params.users`` concurrent
    stubs against one shared look-aside resolver.

    ``progress`` (if given) receives each :class:`ReplayWindow` the
    moment it closes — the streaming hook the CLI uses to print the
    leak-rate curve while the replay runs.
    """
    params = params or ReplayParams()
    config = config or correct_bind_config()
    started_wall = time.perf_counter()

    workload = standard_workload(params.domains, seed=params.seed)
    universe = standard_universe(
        workload, filler_count=params.registry_filler, seed=params.seed
    )
    profiles = make_profiles(
        workload, params.users, params.domains_per_user, seed=params.seed + 1
    )
    cursors = [0] * params.users

    def next_name(user: int) -> Name:
        profile = profiles[user]
        name = profile.names[cursors[user] % len(profile.names)]
        cursors[user] += 1
        return name

    outcome = drive_replay_sessions(
        universe,
        config,
        next_name,
        users=params.users,
        per_user_qps=params.per_user_qps,
        queries=params.queries,
        window_seconds=params.window_seconds,
        max_concurrent=params.max_concurrent,
        max_queue=params.max_queue,
        seed=params.seed,
        progress=progress,
    )
    return PopulationReplayResult(
        params=params,
        windows=outcome.windows,
        overall=fold_windows(outcome.windows),
        scheduler=outcome.scheduler,
        wall_seconds=time.perf_counter() - started_wall,
    )


def run_experiment_in_session(
    experiment: LeakageExperiment, names: Sequence[Name]
) -> ExperimentResult:
    """Run a :class:`LeakageExperiment` through the event scheduler as a
    single session.

    The serial equivalence contract: with exactly one session, every
    ``clock.advance`` suspension resumes at the same float the serial
    path computes in place, so the returned result is **byte-identical**
    (fingerprint, capture rows, trace JSONL) to ``experiment.run(names)``
    without a scheduler.  This is the bridge that lets any existing
    serial harness run under the event loop unchanged.
    """
    clock = experiment.universe.clock
    slot: Dict[str, ExperimentResult] = {}
    with EventScheduler(clock, max_concurrent=1) as scheduler:
        def session() -> None:
            slot["result"] = experiment.run(names)

        scheduler.spawn(session, label="experiment")
        scheduler.run()
    return slot["result"]
