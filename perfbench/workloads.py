"""The benchmark's four workloads, driven through the public API.

Each workload makes its inputs from the seed, builds what the measured
call needs (set-up), makes the measured call, and checks the output.
Every workload is measured twice in one process: the cold pass, and a
repeat over the same inputs with the process-wide memos warm (on
``sweep-stored``, the repeat reads every cell back from the store).

* ``fig8-cold`` — the paper's Fig 8/9 cell: one cold lax-DLV resolver
  and one stub walk the top-N names of the calibrated Alexa-like
  workload (type A plus the 1 % PTR side traffic) against the
  calibrated 60,000-entry registry.  Closed loop, one client.  Cold
  caches put the run phase in the engine, validator, look-aside,
  crypto and zones, and set-up in registry construction.  It never
  starts the event scheduler, so it is the control for scheduler
  changes.
* ``replay-warm`` — 64 users with 20-domain browsing profiles over an
  80-domain population, DITL-shaped Poisson arrivals (open loop in
  simulated time, one batch call on the host) through
  ``drive_replay_sessions``.  The shared cache is warm, so per-query
  cost sits in the scheduler hand-off, the stub/resolver message path,
  cache hits and the streaming capture; crypto and zones are nearly
  idle.  The control for crypto and validator changes.
* ``chaos-blackhole`` — ``run_chaos_replay`` with 16 users over 120
  domains while the DLV registry is black-holed for most of the span
  and the resolver serves stale: 3-4 suspensions per query, timeout
  wake-ups, retry backoff, failover and serve-stale paths.
* ``sweep-stored`` — ``sharded_leakage_sweep(..., parallelism=2,
  store=...)`` into a fresh ``ResultStore``: the sweep ``repro sweep
  --parallelism 2 --store`` runs with its default sizes and filler.
  The repeat reuses every cell.  The only workload that runs
  ``core.parallel`` and ``core.store``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
from typing import Any, Dict, List

from repro.analysis import sharded_leakage_sweep
from repro.core import (
    DEFAULT_REGISTRY_FILLER_COUNT,
    LeakageExperiment,
    ReplayLoad,
    ResultStore,
    chaos_replay_fingerprint,
    drive_replay_sessions,
    fold_windows,
    make_profiles,
    merge_replay_windows,
    registry_outage_scenario,
    result_fingerprint,
    run_chaos_replay,
    standard_universe,
    standard_workload,
)
from repro.resolver import correct_bind_config

#: Benchmark sizes; the tests build the same workloads smaller.  The
#: sweep's are the defaults of ``repro sweep``.
FIG8_NAMES = 1000
REPLAY_QUERIES = 10_000
CHAOS_QUERIES = 8_000
SWEEP_SIZES = (100, 1000)
SWEEP_FILLER = 20_000


@dataclasses.dataclass
class PassResult:
    """One checked measured call."""

    #: Operations attempted: stub queries, or cells on ``sweep-stored``.
    operations: int
    #: Operations that failed the output check.
    failed: int
    #: Stub queries the call completed (all cells, on ``sweep-stored``).
    stub_queries: int
    #: Digest of the simulated output; equal across runs of one seed.
    fingerprint: str
    #: Case-1 DLV queries over all DLV queries (the paper's utility).
    useful_share: float
    #: Human-readable reasons for every failed check.
    problems: List[str] = dataclasses.field(default_factory=list)


def _canonical(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, float):
        return repr(value)
    return value


def digest(value: Any) -> str:
    """SHA-256 over a canonical JSON form (floats by ``repr``)."""
    blob = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _stub_traffic(capture) -> tuple:
    """``(stub queries, their answers)`` in a capture: stub queries are
    the only ones sent with recursion desired."""
    queries = answers = 0
    for record in capture:
        if not record.message.flags.rd:
            continue
        if record.is_query:
            queries += 1
        elif not record.dropped:
            answers += 1
    return queries, answers


def _same_fold(a, b) -> bool:
    """Equal windows, float sums up to rounding (their addition order
    differs between fold trees)."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float):
            if not math.isclose(x, y, rel_tol=1e-12):
                return False
        elif x != y:
            return False
    return True


def _check_windows(windows, budget: int, totals: Dict[str, int],
                   problems: List[str]) -> int:
    """Failed operations of a replay: queries short of the budget, or
    every query when the windows do not fold to *totals*, counters the
    program keeps apart from its windows (scheduler statistics, resolver
    counters), or are not contiguous, or fold differently as two halves
    merged."""
    overall = fold_windows(windows)
    failed = max(0, budget - overall.queries)
    if overall.queries != budget:
        problems.append(f"{overall.queries} of {budget} queries completed")
    middle = len(windows) // 2
    halves = merge_replay_windows(
        fold_windows(windows[:middle]), fold_windows(windows[middle:])
    )
    contiguous = all(
        left.end == right.start for left, right in zip(windows, windows[1:])
    )
    differ = [
        f"{name} {getattr(overall, name)} != {total}"
        for name, total in totals.items()
        if getattr(overall, name) != total
    ]
    if differ or not _same_fold(halves, overall) or not contiguous:
        problems.append(
            "windows do not fold to the overall result"
            + (f": {', '.join(differ)}" if differ else "")
        )
        failed = budget
    return failed


def _scheduler_totals(stats) -> Dict[str, int]:
    """Window fields the scheduler's own statistics also count."""
    return {
        "sessions_started": stats.spawned,
        "sessions_completed": stats.completed,
        "admission_queued": stats.queued,
        "admission_rejected": stats.rejected,
    }


class Fig8Cold:
    #: The repeat pass is the benchmark's own (for ``resume_s``); a
    #: traced sample leaves it out of the ledger.
    repeat_traced = False

    def __init__(self, names: int = FIG8_NAMES,
                 filler: int = DEFAULT_REGISTRY_FILLER_COUNT):
        self.names = names
        self.filler = filler

    def prepare(self, seed: int) -> Dict[str, Any]:
        workload = standard_workload(self.names, seed=seed)
        universe = standard_universe(
            workload, filler_count=self.filler, seed=seed
        )
        return {
            "names": workload.names(self.names),
            "experiment": LeakageExperiment(universe, correct_bind_config()),
        }

    def call(self, state: Dict[str, Any]):
        return state["experiment"].run(state["names"])

    def check(self, state, result, resume: bool) -> PassResult:
        problems: List[str] = []
        queries, answers = _stub_traffic(result.capture)
        failed = max(0, queries - answers)
        if queries != answers:
            problems.append(f"{queries} stub queries, {answers} answers")
        if sum(result.rcode_counts.values()) != len(state["names"]):
            problems.append("an A query has no rcode")
            failed = queries
        leak = result.leakage
        if leak.case1_queries + leak.case2_queries != leak.dlv_queries:
            problems.append("case1 + case2 != dlv_queries")
            failed = queries
        return PassResult(
            operations=queries,
            failed=failed,
            stub_queries=answers,
            fingerprint=digest(result_fingerprint(result)),
            useful_share=_share(leak.case1_queries, leak.dlv_queries),
            problems=problems,
        )

    def prepare_resume(self, state, seed: int):
        return self.prepare(seed)


class ReplayWarm:
    repeat_traced = False
    users = 64
    domains = 80
    profile = 20
    filler = 500
    per_user_qps = 0.05
    window_seconds = 300.0

    def __init__(self, queries: int = REPLAY_QUERIES):
        self.queries = queries

    def prepare(self, seed: int) -> Dict[str, Any]:
        workload = standard_workload(self.domains, seed=seed)
        universe = standard_universe(
            workload, filler_count=self.filler, seed=seed
        )
        profiles = make_profiles(
            workload, self.users, self.profile, seed=seed + 1
        )
        cursors = [0] * self.users

        def next_name(user: int):
            names = profiles[user].names
            name = names[cursors[user] % len(names)]
            cursors[user] += 1
            return name

        return {"seed": seed, "universe": universe, "next_name": next_name}

    def call(self, state: Dict[str, Any]):
        return drive_replay_sessions(
            state["universe"],
            correct_bind_config(),
            state["next_name"],
            users=self.users,
            per_user_qps=self.per_user_qps,
            queries=self.queries,
            window_seconds=self.window_seconds,
            max_concurrent=self.users,
            seed=state["seed"],
        )

    def check(self, state, outcome, resume: bool) -> PassResult:
        problems: List[str] = []
        counters = outcome.metrics.snapshot()["counters"]
        totals = _scheduler_totals(outcome.scheduler)
        totals.update(
            cache_hits=counters.get("cache.hits", 0),
            cache_misses=counters.get("cache.misses", 0),
            retries=counters.get("engine.retries", 0),
            stale_served=outcome.resolver.engine.stale_served,
        )
        failed = _check_windows(outcome.windows, self.queries, totals, problems)
        overall = fold_windows(outcome.windows)
        return PassResult(
            operations=self.queries,
            failed=failed,
            stub_queries=overall.queries,
            fingerprint=digest(outcome.windows),
            useful_share=_share(overall.case1_queries, overall.dlv_queries),
            problems=problems,
        )

    def prepare_resume(self, state, seed: int):
        return self.prepare(seed)


class ChaosBlackhole:
    repeat_traced = False
    users = 16
    domains = 120
    filler = 400
    per_user_qps = 0.05
    window_seconds = 600.0

    def __init__(self, queries: int = CHAOS_QUERIES):
        #: Simulated span the query budget covers (users x qps x span);
        #: the registry is black-holed from the end of its first sixth
        #: (the cold ramp) to the start of its last twelfth.
        self.duration = queries / (self.users * self.per_user_qps)
        self.fault = (self.duration / 6, self.duration * 11 / 12)

    def prepare(self, seed: int) -> Dict[str, Any]:
        workload = standard_workload(self.domains, seed=seed)
        universe = standard_universe(
            workload, filler_count=self.filler, seed=seed
        )
        load = ReplayLoad(
            users=self.users,
            per_user_qps=self.per_user_qps,
            duration_seconds=self.duration,
            window_seconds=self.window_seconds,
            max_concurrent=self.users,
            seed=seed,
        )
        return {
            "universe": universe,
            "names": [spec.name for spec in workload.domains],
            "load": load,
        }

    def call(self, state: Dict[str, Any]):
        return run_chaos_replay(
            state["universe"],
            dataclasses.replace(correct_bind_config(), serve_stale=True),
            state["names"],
            scenario=registry_outage_scenario(
                rcode=None, start=self.fault[0], end=self.fault[1]
            ),
            scenario_label="registry-blackhole",
            policy_label="serve-stale",
            load=state["load"],
        )

    def check(self, state, result, resume: bool) -> PassResult:
        problems: List[str] = []
        budget = state["load"].query_budget()
        totals = _scheduler_totals(result.scheduler)
        totals["stale_served"] = result.stale_served
        failed = _check_windows(result.windows, budget, totals, problems)
        if result.fault_bounds != self.fault:
            problems.append(f"fault bounds {result.fault_bounds}")
            failed = budget
        overall = result.overall
        return PassResult(
            operations=budget,
            failed=failed,
            stub_queries=overall.queries,
            fingerprint=chaos_replay_fingerprint(result),
            useful_share=_share(overall.case1_queries, overall.dlv_queries),
            problems=problems,
        )

    def prepare_resume(self, state, seed: int):
        return self.prepare(seed)


class SweepStored:
    #: The resume pass is part of the workload (``repro sweep --store
    #: --resume``), so the ledger traces it too.
    repeat_traced = True
    parallelism = 2

    def __init__(self, scratch: str, sizes=SWEEP_SIZES, filler: int = SWEEP_FILLER):
        #: Directory the store lives in (the caller removes it).
        self.scratch = scratch
        self.sizes = tuple(sizes)
        self.filler = filler

    def prepare(self, seed: int) -> Dict[str, Any]:
        root = os.path.join(self.scratch, "store")
        if os.path.exists(root):
            shutil.rmtree(root)
        return {"seed": seed, "store": ResultStore(root), "outcomes": []}

    def call(self, state: Dict[str, Any]):
        return sharded_leakage_sweep(
            sizes=self.sizes,
            seed=state["seed"],
            filler_count=self.filler,
            parallelism=self.parallelism,
            store=state["store"],
            outcomes=state["outcomes"],
        )

    def check(self, state, points, resume: bool) -> PassResult:
        problems: List[str] = []
        operations = failed = stub_queries = case1 = dlv = 0
        outcomes = state["outcomes"]
        if len(outcomes) != len(self.sizes):
            problems.append(f"{len(outcomes)} sweep outcomes")
        for outcome in outcomes:
            operations += outcome.cells_total
            expected = outcome.cells_reused if resume else outcome.cells_rerun
            bad = outcome.cells_total - expected + len(outcome.quarantined)
            if bad:
                problems.append(outcome.describe())
            failed += min(bad, outcome.cells_total)
            _, answers = _stub_traffic(outcome.result.capture)
            stub_queries += answers
            case1 += outcome.result.leakage.case1_queries
            dlv += outcome.result.leakage.dlv_queries
        return PassResult(
            operations=operations,
            failed=failed,
            stub_queries=stub_queries,
            fingerprint=digest(points),
            useful_share=_share(case1, dlv),
            problems=problems,
        )

    def prepare_resume(self, state, seed: int):
        return {
            "seed": seed,
            "store": ResultStore(state["store"].root),
            "outcomes": [],
        }


def make(name: str, scratch: str):
    """The workload called *name*; the sweep's store lives in *scratch*."""
    if name == "fig8-cold":
        return Fig8Cold()
    if name == "replay-warm":
        return ReplayWarm()
    if name == "chaos-blackhole":
        return ChaosBlackhole()
    if name == "sweep-stored":
        return SweepStored(scratch)
    raise ValueError(f"unknown workload {name!r}")
