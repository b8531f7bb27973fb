"""Chaos and adversaries under load: concurrent replay for the matrices.

The chaos (:func:`~repro.core.experiment.run_chaos_matrix`) and
adversary (:func:`~repro.core.experiment.run_adversary_matrix`)
harnesses measure fault windows and byzantine personas one stub query
at a time — the resolver is never *busy* when the DLV registry goes
dark.  The paper's remedies only matter under load: retry storms pile
onto the shared backoff state, serve-stale competes with admission
queueing, and the registry's Case-2 exposure during an outage scales
with concurrency.  This module replays the same matrix cells through
the event scheduler so many in-flight sessions cross the fault window
simultaneously on one shared resolver/cache universe:

* :func:`run_chaos_replay` scripts a
  :class:`~repro.core.experiment.ChaosScenario` (``FaultPlan`` outage /
  brownout windows) onto a fresh calibrated universe, then drives a
  DITL-shaped arrival stream over the cell's domain sample with
  :func:`~repro.core.replay.drive_replay_sessions`;
* :func:`run_adversary_replay` does the same with a byzantine persona
  (PR 2's spoofer / poisoner / referral bomber / sig bomber) live on
  the wire, reading the persona's forge counters and the cache's
  ground-truth poison afterwards;
* every closed :class:`~repro.core.parallel.ReplayWindow` carries the
  availability extension — SERVFAIL/timeout split, resolver retry and
  served-stale deltas, admission deferrals and sheds, and the
  mergeable latency histogram — so the during-/after-outage phases are
  exact monoid folds of the windows they span
  (:meth:`ChaosReplayResult.fold_between`);
* :func:`chaos_replay_fingerprint` hashes the full window sequence into
  the golden-file regression flow, the same way
  :func:`~repro.core.parallel.result_fingerprint` pins the serial
  harness.

Both entry points only set the cell up — script the scenario or deploy
the persona — and share one body that drives the sessions and reads
the result.

The serial cells (:func:`~repro.core.experiment.run_chaos_cell`,
:func:`~repro.core.experiment.run_adversary_cell`) always walk one
stub query at a time; "under load" always means calling a replay
here with a :class:`ReplayLoad`.  That a single scheduler session
reproduces the serial experiment byte for byte is pinned on
:func:`~repro.core.replay.run_experiment_in_session`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..dnscore import Name
from ..netsim import AdversaryPersona, SchedulerStats
from ..resolver import ResolverConfig, correct_bind_config
from ..workloads import Universe
from .experiment import AdversaryScenario, ChaosScenario
from .observability import (
    HardeningSnapshot,
    hardening_snapshot,
    poisoned_cache_entries,
)
from .parallel import ReplayWindow, empty_replay_window
from .replay import drive_replay_sessions, fold_windows


@dataclasses.dataclass(frozen=True)
class ReplayLoad:
    """The load of a chaos or adversary replay: a population of
    concurrent stubs and their arrival rate.

    ``queries=None`` sizes the stream to ``users * per_user_qps *
    duration_seconds`` (rounded down, at least one per user) so every
    load level replays the *same simulated timespan* — which is what
    makes availability curves at different loads comparable around one
    fixed outage window.
    """

    #: Concurrent stub clients sharing the resolver.
    users: int = 8
    #: Mean per-user arrival rate (queries / simulated second) before
    #: the DITL diurnal modulation.
    per_user_qps: float = 0.05
    #: Total stub queries; ``None`` derives from ``duration_seconds``.
    queries: Optional[int] = None
    #: Simulated timespan the derived query budget targets.
    duration_seconds: float = 3_600.0
    #: Aggregation-window width in simulated seconds.
    window_seconds: float = 300.0
    #: Admission cap: in-flight sessions beyond this queue FIFO.
    max_concurrent: int = 64
    #: Bound on the admission FIFO; arrivals beyond it are shed.
    max_queue: Optional[int] = None
    seed: int = 2017

    def query_budget(self) -> int:
        if self.queries is not None:
            return self.queries
        derived = int(self.users * self.per_user_qps * self.duration_seconds)
        return max(self.users, derived)

    def describe(self) -> str:
        return (
            f"{self.users} users × {self.per_user_qps:g} qps "
            f"({self.query_budget()} queries, "
            f"inflight≤{self.max_concurrent}"
            + (f", queue≤{self.max_queue}" if self.max_queue is not None else "")
            + ")"
        )


@dataclasses.dataclass
class ChaosReplayResult:
    """One under-load cell: the window stream and its phase folds."""

    scenario: str
    policy: str
    load: ReplayLoad
    #: Closed aggregation windows, in simulated-time order.
    windows: List[ReplayWindow]
    #: The monoid fold of every window.
    overall: ReplayWindow
    scheduler: SchedulerStats
    wall_seconds: float
    #: ``(start, end)`` of the scripted outage span — the smallest
    #: start and largest end over the universe's scripted outage
    #: windows (``end`` clamped to the replay's horizon when the
    #: script ran open-ended).  ``None`` when nothing was scripted.
    fault_bounds: Optional[Tuple[float, float]] = None
    #: Persona counters (adversary replays only).
    adversary: str = "none"
    responses_forged: int = 0
    poisoned_cache_entries: int = 0
    #: Resolver-side resilience counters read after the replay.
    stale_served: int = 0
    lookaside_skipped: int = 0
    lookaside_disabled: bool = False
    #: The engine's send counter (``engine.queries_sent``): every
    #: upstream send it began, including one to an address no server
    #: holds, which fails before any packet is captured.
    upstream_sends: int = 0
    crypto_verify_calls: int = 0
    hardening: Optional[HardeningSnapshot] = None

    def fold_between(self, start: float, end: float) -> ReplayWindow:
        """The exact monoid fold of every window overlapping
        ``[start, end)`` — the phase-slicing primitive behind
        :meth:`during_fault` / :meth:`after_fault`."""
        selected = [
            w for w in self.windows if w.start < end and w.end > start
        ]
        return fold_windows(selected) if selected else empty_replay_window()

    def during_fault(self) -> ReplayWindow:
        if self.fault_bounds is None:
            return empty_replay_window()
        return self.fold_between(*self.fault_bounds)

    def after_fault(self) -> ReplayWindow:
        if self.fault_bounds is None:
            return empty_replay_window()
        return self.fold_between(self.fault_bounds[1], float("inf"))

    def before_fault(self) -> ReplayWindow:
        if self.fault_bounds is None:
            return empty_replay_window()
        return self.fold_between(float("-inf"), self.fault_bounds[0])

    def describe(self) -> str:
        overall = self.overall
        label = (
            f"{self.scenario} × {self.policy}"
            if self.adversary == "none"
            else f"{self.adversary} × {self.policy}"
        )
        parts = [
            f"[{label} @ {self.load.describe()}]",
            f"servfail {overall.servfail_rate:.1%}",
            f"timeout {overall.timeout_rate:.1%}",
            f"leak-rate {overall.leak_rate:.3f}",
            f"p99 {overall.latency_p99:.3f}s",
            f"retries={overall.retries}",
            f"stale={overall.stale_served}",
            f"shed={overall.admission_rejected}",
        ]
        if self.fault_bounds is not None:
            during = self.during_fault()
            parts.append(
                f"during-fault servfail {during.servfail_rate:.1%} "
                f"timeout {during.timeout_rate:.1%}"
            )
        return " ".join(parts)


def _window_payload(window: ReplayWindow) -> dict:
    """The canonical JSON-able form of one window — every counter the
    availability monoid carries, floats via ``repr`` for bit-stability."""
    return {
        "start": repr(window.start),
        "end": repr(window.end),
        "queries": window.queries,
        "failures": window.failures,
        "servfails": window.servfails,
        "timeouts": window.timeouts,
        "dlv_queries": window.dlv_queries,
        "case1_queries": window.case1_queries,
        "case2_queries": window.case2_queries,
        "leaked_domains": sorted(window.leaked_domains),
        "cache_hits": window.cache_hits,
        "cache_misses": window.cache_misses,
        "packets": window.packets,
        "wire_bytes": window.wire_bytes,
        "dropped": window.dropped,
        "latency_sum": repr(window.latency_sum),
        "latency_max": repr(window.latency_max),
        "latency_buckets": list(window.latency_buckets),
        "sessions_started": window.sessions_started,
        "sessions_completed": window.sessions_completed,
        "retries": window.retries,
        "stale_served": window.stale_served,
        "admission_queued": window.admission_queued,
        "admission_rejected": window.admission_rejected,
    }


def chaos_replay_payload(result: ChaosReplayResult) -> dict:
    """The deterministic payload :func:`chaos_replay_fingerprint`
    hashes — also what the golden files pin, so a drift shows up as a
    readable diff before it shows up as a hash mismatch."""
    return {
        "scenario": result.scenario,
        "adversary": result.adversary,
        "policy": result.policy,
        "load": {
            "users": result.load.users,
            "per_user_qps": repr(result.load.per_user_qps),
            "queries": result.load.query_budget(),
            "window_seconds": repr(result.load.window_seconds),
            "max_concurrent": result.load.max_concurrent,
            "max_queue": result.load.max_queue,
            "seed": result.load.seed,
        },
        "fault_bounds": (
            None
            if result.fault_bounds is None
            else [repr(result.fault_bounds[0]), repr(result.fault_bounds[1])]
        ),
        "windows": [_window_payload(w) for w in result.windows],
        "responses_forged": result.responses_forged,
        "poisoned_cache_entries": result.poisoned_cache_entries,
        "upstream_sends": result.upstream_sends,
    }


def chaos_replay_fingerprint(result: ChaosReplayResult) -> str:
    """SHA-256 over the canonical window payload: same universe, same
    scenario, same load ⇒ same fingerprint, on any host."""
    blob = json.dumps(
        chaos_replay_payload(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fault_bounds(
    universe: Universe, horizon: float
) -> Optional[Tuple[float, float]]:
    """The scripted outage span of *universe*'s fault plan, with an
    open-ended script clamped to the replay *horizon*."""
    windows = universe.network.faults.outage_windows()
    if not windows:
        return None
    start = min(window.start for _, window in windows)
    end = max(window.end for _, window in windows)
    if end == float("inf"):
        end = horizon
    return (start, end)


def _round_robin_names(
    names: Sequence[Name], users: int
) -> Callable[[int], Name]:
    """Each user cycles the full cell sample from its own phase offset:
    deterministic, covers every name, and keeps concurrent users from
    marching through the sample in lockstep (which would overstate the
    shared cache's hit rate)."""
    if not names:
        raise ValueError("chaos replay needs a non-empty name sample")
    cursors = [0] * users

    def next_name(user: int) -> Name:
        name = names[(user + cursors[user]) % len(names)]
        cursors[user] += 1
        return name

    return next_name


def run_chaos_replay(
    universe: Universe,
    config: Optional[ResolverConfig] = None,
    names: Sequence[Name] = (),
    scenario: Optional[ChaosScenario] = None,
    scenario_label: str = "none",
    policy_label: str = "",
    load: ReplayLoad = ReplayLoad(),
    progress: Optional[Callable[[ReplayWindow], None]] = None,
) -> ChaosReplayResult:
    """One chaos cell under load: script *scenario*'s fault windows
    onto *universe*, then replay *names* from ``load.users`` concurrent
    stubs while the faults are live.

    The scenario runs **before** any traffic (fault plans are scripted
    in simulated time, not wall time), so an outage window at, say,
    ``[900, 2700)`` hits whatever sessions happen to be in flight then —
    retry storms, backoff pile-ups, and admission pressure included.
    """
    config = config or correct_bind_config()
    if scenario is not None:
        scenario(universe)
    return _replay_cell(
        universe,
        config,
        names,
        load,
        progress,
        scenario=scenario_label,
        policy=policy_label or config.describe(),
    )


def run_adversary_replay(
    universe: Universe,
    config: Optional[ResolverConfig] = None,
    names: Sequence[Name] = (),
    adversary: Optional[AdversaryScenario] = None,
    adversary_label: str = "none",
    policy_label: str = "",
    load: ReplayLoad = ReplayLoad(),
    progress: Optional[Callable[[ReplayWindow], None]] = None,
) -> ChaosReplayResult:
    """One adversary cell under load: deploy the persona, then replay
    *names* concurrently while it forges on the wire.

    The persona's tamper hooks install on the universe's fault plan
    before any traffic, exactly as in the serial
    :func:`~repro.core.experiment.run_adversary_cell`; afterwards the
    result carries its forge counter and the cache's ground-truth
    poisoned-entry count."""
    config = config or correct_bind_config()
    persona = adversary(universe) if adversary is not None else None
    return _replay_cell(
        universe,
        config,
        names,
        load,
        progress,
        scenario="none",
        policy=policy_label or config.hardening.describe(),
        adversary=adversary_label,
        persona=persona,
    )


def _replay_cell(
    universe: Universe,
    config: ResolverConfig,
    names: Sequence[Name],
    load: ReplayLoad,
    progress: Optional[Callable[[ReplayWindow], None]],
    *,
    scenario: str,
    policy: str,
    adversary: str = "none",
    persona: Optional[AdversaryPersona] = None,
) -> ChaosReplayResult:
    """Drive *names* through the sessions of *load* on a universe whose
    faults or persona are already in place, and read the result."""
    started_wall = time.perf_counter()
    outcome = drive_replay_sessions(
        universe,
        config,
        _round_robin_names(names, load.users),
        users=load.users,
        per_user_qps=load.per_user_qps,
        queries=load.query_budget(),
        window_seconds=load.window_seconds,
        max_concurrent=load.max_concurrent,
        max_queue=load.max_queue,
        seed=load.seed,
        progress=progress,
    )
    wall = time.perf_counter() - started_wall
    overall = fold_windows(outcome.windows)
    resolver = outcome.resolver
    return ChaosReplayResult(
        scenario=scenario,
        policy=policy,
        load=load,
        windows=outcome.windows,
        overall=overall,
        scheduler=outcome.scheduler,
        wall_seconds=wall,
        fault_bounds=_fault_bounds(universe, overall.end),
        adversary=adversary,
        responses_forged=persona.responses_forged if persona is not None else 0,
        poisoned_cache_entries=(
            poisoned_cache_entries(resolver, [persona])
            if persona is not None
            else 0
        ),
        stale_served=resolver.engine.stale_served,
        lookaside_skipped=resolver.lookaside.searches_skipped,
        lookaside_disabled=resolver.lookaside.disabled,
        upstream_sends=resolver.engine.queries_sent,
        crypto_verify_calls=resolver.validator.crypto_verify_calls,
        hardening=hardening_snapshot(resolver),
    )
