"""Sharded parallel experiment runner with a deterministic merge.

The paper's headline numbers come from sweeping whole resolver
environments over large domain samples (Section 4, Tables 1-5).  Every
run in this repository is a deterministic simulation, which makes the
sweeps embarrassingly parallel — *if* the parallel result can be trusted
to equal the serial one bit for bit.  This module provides exactly that
contract:

* :func:`plan_shards` splits a name workload into contiguous,
  deterministically seeded shards (sub-seeds derive from the base seed
  via SHA-256, never from Python's hash or process state);
* each shard runs in a **fresh universe** built from its sub-seed, so
  shards share no caches, no clock, and no capture — a shard's result
  is a pure function of ``(factory, config, shard names, sub-seed)``;
* :class:`SerialExecutor` runs the shard tasks in-process, and
  :class:`FaultTolerantExecutor` on forked workers with timeouts,
  retries and quarantine; the executor choice is *provably invisible*
  in the output (enforced by
  ``tests/core/test_parallel_equivalence.py``);
* every sharded sweep, stored or not, runs its cells through one
  engine, :func:`~repro.core.store.run_stored_cells` on the
  fault-tolerant executor; :func:`run_sharded_experiment` runs one
  shard plan on the executor it is given and is the reference those
  sweeps are compared against;
* :func:`merge_shard_results` re-sorts shard results by their stable
  shard index and folds them with the monoid merges below, renumbering
  trace ids so the exported trace JSONL is byte-identical no matter
  which worker finished first.

Determinism / sub-seed contract
-------------------------------

``subseed(i) = SHA256(f"{seed}:{i}") mod 2**63`` — stable across
platforms and Python versions.  Shard *i* of *k* always receives the
same contiguous name slice and the same sub-seed, so the merged result
is a function of ``(names, seed, k)`` alone: worker count, executor
kind, and shard completion order cannot change a single byte of the
merged summary, histograms, capture rows, metric snapshot, or exported
trace JSONL.  The serial reference for a sharded run is the *same shard
plan* executed by :class:`SerialExecutor`; with ``shards=1`` that
reference is byte-identical to a plain
:meth:`~repro.core.experiment.LeakageExperiment.run` on the shard's
own universe (``factory(derive_subseed(seed, 0))``).

The merge operations (:func:`merge_leakage_reports`,
:func:`merge_overhead`, :func:`merge_metrics_snapshots`,
:func:`merge_results`) are associative and have the empty value as
identity; :func:`merge_shard_results` is additionally invariant to the
order its inputs arrive in (it sorts by shard index first).  Those
algebraic laws are what make the fan-out safe, and they are enforced by
Hypothesis in ``tests/core/test_parallel_merge_properties.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..dnscore import Name
from ..resolver import ResolverConfig
from ..workloads import Universe
from .experiment import ExperimentResult, LeakageExperiment, _CaptureSlice
from .leakage import LeakageReport
from .metrics import MetricsRegistry
from .overhead import OverheadMetrics
from .tracing import Span, Tracer, export_traces_jsonl

T = TypeVar("T")

#: How long the fork-pool loop waits on its workers' pipes (or sleeps
#: out a retry delay) before it checks deadlines and due work again.
_POLL_SECONDS = 0.02

#: A picklable callable building a fresh universe from a sub-seed.
UniverseFactory = Callable[[int], Universe]

#: The stub behaviour every shard runs with, which its cell key
#: records: the share of names also looked up as PTR, and the DO bit.
SHARD_PTR_FRACTION = 0.01
SHARD_DNSSEC_OK_STUB = True


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------

def derive_subseed(seed: int, shard_index: int) -> int:
    """The shard's derived sub-seed: ``SHA256(f"{seed}:{index}")``
    folded to 63 bits.  Pure arithmetic on stable inputs — no process
    state, no ``PYTHONHASHSEED`` sensitivity."""
    digest = hashlib.sha256(f"{seed}:{shard_index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One shard of a sharded run: a stable index, its contiguous name
    slice, and its derived sub-seed."""

    index: int
    names: Tuple[Name, ...]
    seed: int


def plan_shards(
    names: Sequence[Name], shard_count: int, seed: int
) -> List[ShardSpec]:
    """Split *names* into *shard_count* contiguous shards.

    The first ``len(names) % shard_count`` shards carry one extra name,
    so the partition depends only on ``(len(names), shard_count)`` —
    never on timing or worker count.  Empty shards are legal (more
    shards than names) and merge as identities.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    total = len(names)
    base, extra = divmod(total, shard_count)
    shards: List[ShardSpec] = []
    cursor = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        shard_names = tuple(names[cursor:cursor + size])
        cursor += size
        shards.append(
            ShardSpec(
                index=index,
                names=shard_names,
                seed=derive_subseed(seed, index),
            )
        )
    return shards


# ----------------------------------------------------------------------
# Monoid merges
# ----------------------------------------------------------------------

def empty_leakage_report() -> LeakageReport:
    """The identity of :func:`merge_leakage_reports`."""
    return LeakageReport(
        domains_queried=0,
        dlv_queries=0,
        case1_queries=0,
        case2_queries=0,
        leaked_domains=set(),
        served_domains=set(),
        tld_level_queries=0,
        noerror_responses=0,
        nxdomain_responses=0,
    )


def merge_leakage_reports(a: LeakageReport, b: LeakageReport) -> LeakageReport:
    """Combine two shard reports: counts add, domain sets union.

    Shards query disjoint name slices, so ``domains_queried`` adds and
    the unions stay disjoint; associative and commutative with
    :func:`empty_leakage_report` as identity.
    """
    return LeakageReport(
        domains_queried=a.domains_queried + b.domains_queried,
        dlv_queries=a.dlv_queries + b.dlv_queries,
        case1_queries=a.case1_queries + b.case1_queries,
        case2_queries=a.case2_queries + b.case2_queries,
        leaked_domains=set(a.leaked_domains) | set(b.leaked_domains),
        served_domains=set(a.served_domains) | set(b.served_domains),
        tld_level_queries=a.tld_level_queries + b.tld_level_queries,
        noerror_responses=a.noerror_responses + b.noerror_responses,
        nxdomain_responses=a.nxdomain_responses + b.nxdomain_responses,
    )


def empty_overhead() -> OverheadMetrics:
    """The identity of :func:`merge_overhead`."""
    return OverheadMetrics(
        response_time=0.0,
        traffic_bytes=0,
        queries_issued=0,
        query_type_counts={},
    )


def merge_overhead(a: OverheadMetrics, b: OverheadMetrics) -> OverheadMetrics:
    """Combine shard overheads.  Response times add because the serial
    reference runs the shards back to back on independent clocks."""
    counts: Dict = dict(a.query_type_counts)
    for rtype, count in b.query_type_counts.items():
        counts[rtype] = counts.get(rtype, 0) + count
    return OverheadMetrics(
        response_time=a.response_time + b.response_time,
        traffic_bytes=a.traffic_bytes + b.traffic_bytes,
        queries_issued=a.queries_issued + b.queries_issued,
        query_type_counts={key: counts[key] for key in sorted(counts, key=lambda r: r.value)},
    )


def _merge_count_dicts(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value
    return {key: merged[key] for key in sorted(merged)}


def empty_metrics_snapshot() -> Dict[str, Dict]:
    """The identity of :func:`merge_metrics_snapshots`."""
    return {"counters": {}, "histograms": {}}


def merge_metrics_snapshots(
    a: Optional[Dict[str, Dict]], b: Optional[Dict[str, Dict]]
) -> Optional[Dict[str, Dict]]:
    """Combine two :meth:`~repro.core.metrics.MetricsRegistry.snapshot`
    dicts: counters add; histogram count/sum add, min/max extend, mean
    recomputes.  ``None`` (an untelemetered shard) acts as identity;
    two ``None`` inputs stay ``None``."""
    if a is None and b is None:
        return None
    left = a if a is not None else empty_metrics_snapshot()
    right = b if b is not None else empty_metrics_snapshot()
    histograms: Dict[str, Dict] = {}
    for name in sorted(set(left["histograms"]) | set(right["histograms"])):
        parts = [
            source["histograms"][name]
            for source in (left, right)
            if name in source["histograms"]
        ]
        count = sum(part["count"] for part in parts)
        total = sum(part["sum"] for part in parts)
        mins = [part["min"] for part in parts if part["min"] is not None]
        maxes = [part["max"] for part in parts if part["max"] is not None]
        histograms[name] = {
            "count": count,
            "sum": total,
            "min": min(mins) if mins else None,
            "max": max(maxes) if maxes else None,
            "mean": total / count if count else 0.0,
        }
    return {
        "counters": _merge_count_dicts(left["counters"], right["counters"]),
        "histograms": histograms,
    }


#: Upper bounds (simulated seconds) of the session-latency histogram
#: buckets carried by :class:`ReplayWindow`.  Log-spaced so retry
#: storms (seconds of backoff) and cache hits (sub-millisecond) both
#: resolve; the last bucket is a catch-all and quantiles clamp to it.
#: Bucket *counts* are additive, which is what makes per-window p50/p99
#: an exact monoid fold rather than an approximation of an
#: unmergeable per-sample quantile.
LATENCY_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0,
)


def empty_latency_buckets() -> Tuple[int, ...]:
    """An all-zero bucket vector (also an identity of
    :func:`merge_latency_buckets`, alongside the empty tuple)."""
    return (0,) * len(LATENCY_BUCKET_BOUNDS)


def latency_bucket_index(latency: float) -> int:
    """The histogram bucket a session latency falls into (clamped into
    the last, catch-all bucket)."""
    for index, bound in enumerate(LATENCY_BUCKET_BOUNDS):
        if latency <= bound:
            return index
    return len(LATENCY_BUCKET_BOUNDS) - 1


def merge_latency_buckets(
    a: Tuple[int, ...], b: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Elementwise-add two bucket vectors; the empty tuple (and any
    shorter vector, zero-padded) acts as identity."""
    if not a:
        return tuple(b)
    if not b:
        return tuple(a)
    if len(a) < len(b):
        a = a + (0,) * (len(b) - len(a))
    elif len(b) < len(a):
        b = b + (0,) * (len(a) - len(b))
    return tuple(x + y for x, y in zip(a, b))


def latency_quantile(buckets: Sequence[int], q: float) -> float:
    """The *q*-quantile latency implied by a bucket vector: the upper
    bound of the first bucket whose cumulative count reaches rank
    ``ceil(q * total)``.  Deterministic, merge-exact, and clamped to
    the last finite bound — 0.0 for an empty histogram."""
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    cumulative = 0
    for count, bound in zip(buckets, LATENCY_BUCKET_BOUNDS):
        cumulative += count
        if cumulative >= rank:
            return bound
    return LATENCY_BUCKET_BOUNDS[-1]


@dataclasses.dataclass(frozen=True)
class ReplayWindow:
    """Streaming-aggregation unit of a population-scale replay.

    The event-driven replay (:mod:`repro.core.replay`) never holds
    per-query records: it folds every completed stub query and every
    registry-observed packet into the current window, closes the window
    at its time boundary, and merges closed windows with
    :func:`merge_replay_windows` — the same monoid discipline the shard
    merges use, so memory stays flat at millions of queries while the
    overall result is still an exact fold (associative, commutative,
    :func:`empty_replay_window` as identity; enforced by Hypothesis in
    ``tests/core/test_replay.py`` and
    ``tests/core/test_chaos_replay.py``).

    ``leaked_domains`` is the one set-valued field: it is bounded by the
    *domain population*, not the query volume, so carrying it in the
    monoid is O(domains) — the distinct-leak curve of paper Fig. 8
    without retaining a single packet.

    The availability extension (chaos-under-load, PR 9) splits
    ``failures`` into stub-visible SERVFAILs vs timeouts, carries the
    resolver's per-window retry / served-stale activity, the admission
    queue's deferrals and rejections, and a fixed-width latency
    histogram (:data:`LATENCY_BUCKET_BOUNDS`) whose bucket counts add
    under merge — so p50/p99 session latency is still an exact window
    fold.
    """

    #: Simulated-time bounds of the window (identity: +inf / -inf).
    start: float
    end: float
    #: Stub queries completed / failed (timeout budgets, SERVFAIL paths).
    queries: int = 0
    failures: int = 0
    #: Look-aside traffic the registry received (not dropped in flight).
    dlv_queries: int = 0
    case1_queries: int = 0
    case2_queries: int = 0
    #: Distinct Case-2 domains (relative to the registry origin).
    leaked_domains: FrozenSet[str] = frozenset()
    #: Resolver cache behaviour over the window (metrics deltas).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wire totals over the window.
    packets: int = 0
    wire_bytes: int = 0
    dropped: int = 0
    #: Per-query completion latency (simulated seconds): sum and max.
    latency_sum: float = 0.0
    latency_max: float = 0.0
    #: Sessions the scheduler admitted / finished inside the window.
    sessions_started: int = 0
    sessions_completed: int = 0
    #: Availability split of ``failures``: stub-visible SERVFAIL
    #: answers vs exhausted timeout budgets.
    servfails: int = 0
    timeouts: int = 0
    #: Resolver-side activity over the window (metrics deltas):
    #: upstream re-sends after a timeout and stale answers served
    #: under ``serve_stale`` during an outage.
    retries: int = 0
    stale_served: int = 0
    #: Admission-queue pressure: sessions deferred into the FIFO and
    #: sessions shed outright by a bounded queue (``max_queue``).
    admission_queued: int = 0
    admission_rejected: int = 0
    #: Session-latency histogram (counts per
    #: :data:`LATENCY_BUCKET_BOUNDS` bucket; ``()`` is the identity).
    latency_buckets: Tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def leak_rate(self) -> float:
        """Case-2 queries per completed stub query (the per-window
        privacy-leak intensity)."""
        return self.case2_queries / self.queries if self.queries else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.queries if self.queries else 0.0

    @property
    def servfail_rate(self) -> float:
        """Stub queries answered SERVFAIL per completed query."""
        return self.servfails / self.queries if self.queries else 0.0

    @property
    def timeout_rate(self) -> float:
        """Stub queries that exhausted their timeout budget per
        completed query."""
        return self.timeouts / self.queries if self.queries else 0.0

    @property
    def latency_p50(self) -> float:
        return latency_quantile(self.latency_buckets, 0.50)

    @property
    def latency_p99(self) -> float:
        return latency_quantile(self.latency_buckets, 0.99)

    def describe(self) -> str:
        return (
            f"[{self.start:,.0f}s..{self.end:,.0f}s] "
            f"{self.queries} queries ({self.failures} failed: "
            f"{self.servfails} servfail / {self.timeouts} timeout), "
            f"dlv={self.dlv_queries} case2={self.case2_queries} "
            f"({len(self.leaked_domains)} domains), "
            f"cache-hit {self.cache_hit_rate:.1%}, "
            f"p50 {self.latency_p50:.3f}s p99 {self.latency_p99:.3f}s, "
            f"retries={self.retries} stale={self.stale_served} "
            f"shed={self.admission_rejected}"
        )


def empty_replay_window() -> ReplayWindow:
    """The identity of :func:`merge_replay_windows`."""
    return ReplayWindow(start=float("inf"), end=float("-inf"))


def merge_replay_windows(a: ReplayWindow, b: ReplayWindow) -> ReplayWindow:
    """Fold two windows: bounds extend, counts add, leak sets union."""
    return ReplayWindow(
        start=min(a.start, b.start),
        end=max(a.end, b.end),
        queries=a.queries + b.queries,
        failures=a.failures + b.failures,
        dlv_queries=a.dlv_queries + b.dlv_queries,
        case1_queries=a.case1_queries + b.case1_queries,
        case2_queries=a.case2_queries + b.case2_queries,
        leaked_domains=a.leaked_domains | b.leaked_domains,
        cache_hits=a.cache_hits + b.cache_hits,
        cache_misses=a.cache_misses + b.cache_misses,
        packets=a.packets + b.packets,
        wire_bytes=a.wire_bytes + b.wire_bytes,
        dropped=a.dropped + b.dropped,
        latency_sum=a.latency_sum + b.latency_sum,
        latency_max=max(a.latency_max, b.latency_max),
        sessions_started=a.sessions_started + b.sessions_started,
        sessions_completed=a.sessions_completed + b.sessions_completed,
        servfails=a.servfails + b.servfails,
        timeouts=a.timeouts + b.timeouts,
        retries=a.retries + b.retries,
        stale_served=a.stale_served + b.stale_served,
        admission_queued=a.admission_queued + b.admission_queued,
        admission_rejected=a.admission_rejected + b.admission_rejected,
        latency_buckets=merge_latency_buckets(
            a.latency_buckets, b.latency_buckets
        ),
    )


def _retag_trace(root: Span, trace_id: int) -> Span:
    """A copy of *root*'s subtree carrying *trace_id* (span ids and
    structure unchanged)."""
    return dataclasses.replace(
        root,
        trace_id=trace_id,
        attrs=dict(root.attrs),
        children=[_retag_trace(child, trace_id) for child in root.children],
    )


def renumber_traces(roots: Sequence[Span], start: int = 1) -> Tuple[Span, ...]:
    """Assign sequential trace ids from *start* in the given order.

    Shard tracers each number their traces from 1; after concatenating
    shards in index order, renumbering restores the global sequence a
    serial tracer would have produced, making the merged JSONL export
    deterministic."""
    return tuple(
        _retag_trace(root, start + offset) for offset, root in enumerate(roots)
    )


def empty_result() -> ExperimentResult:
    """The identity of :func:`merge_results`."""
    return ExperimentResult(
        names=[],
        leakage=empty_leakage_report(),
        overhead=empty_overhead(),
        status_counts={},
        rcode_counts={},
        authenticated_answers=0,
        capture=None,
        traces=(),
        metrics=None,
    )


def merge_results(a: ExperimentResult, b: ExperimentResult) -> ExperimentResult:
    """Merge two shard results in order (``a`` before ``b``).

    Associative with :func:`empty_result` as identity.  Ordered fields
    (names, capture, traces) concatenate; trace ids renumber so the
    merged export is stable; everything else folds through the monoid
    merges above.
    """
    if a.capture is None and b.capture is None:
        capture = None
    else:
        records: List = []
        if a.capture is not None:
            records.extend(a.capture)
        if b.capture is not None:
            records.extend(b.capture)
        capture = _CaptureSlice(records)
    return ExperimentResult(
        names=list(a.names) + list(b.names),
        leakage=merge_leakage_reports(a.leakage, b.leakage),
        overhead=merge_overhead(a.overhead, b.overhead),
        status_counts=_merge_count_dicts(a.status_counts, b.status_counts),
        rcode_counts=_merge_count_dicts(a.rcode_counts, b.rcode_counts),
        authenticated_answers=a.authenticated_answers + b.authenticated_answers,
        capture=capture,
        traces=renumber_traces(tuple(a.traces) + tuple(b.traces)),
        metrics=merge_metrics_snapshots(a.metrics, b.metrics),
    )


def merge_shard_results(
    pairs: Iterable[Tuple[int, ExperimentResult]]
) -> ExperimentResult:
    """Fold shard results into one, re-sorting by shard index first.

    The sort is what makes the merge invariant to completion order:
    whichever worker finishes first, the fold always runs in shard
    order, so float sums, name order, capture order, and trace
    numbering all match the serial reference exactly.
    """
    merged = empty_result()
    for _, result in sorted(pairs, key=lambda pair: pair[0]):
        merged = merge_results(merged, result)
    return merged


def result_fingerprint(result: ExperimentResult) -> Dict[str, Any]:
    """A canonical, comparison-friendly digest of a result.

    Everything the equivalence contract covers, reduced to plain
    comparable values: the summary line, the histograms, the capture
    rows, the metric snapshot, and the byte-exact trace JSONL.  Two
    results with equal fingerprints are indistinguishable to every
    analysis in this repository.
    """
    capture_rows = (
        [
            (
                record.time,
                record.src,
                record.dst,
                record.wire_size,
                record.dropped,
                record.qname.to_text() if record.qname is not None else None,
                record.qtype.name if record.qtype is not None else None,
            )
            for record in result.capture
        ]
        if result.capture is not None
        else []
    )
    return {
        "summary": result.summary(),
        "names": [name.to_text() for name in result.names],
        "status_counts": dict(sorted(result.status_counts.items())),
        "rcode_counts": dict(sorted(result.rcode_counts.items())),
        "authenticated": result.authenticated_answers,
        "leaked_domains": sorted(
            name.to_text() for name in result.leakage.leaked_domains
        ),
        "served_domains": sorted(
            name.to_text() for name in result.leakage.served_domains
        ),
        "capture": capture_rows,
        "metrics": result.metrics,
        "traces_jsonl": export_traces_jsonl(list(result.traces)),
    }


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

#: Parent-side handoff for the fork pool: workers inherit the task list
#: through fork instead of pickling it, so arbitrary closures (chaos
#: scenarios, universe factories) fan out without being picklable.
_ACTIVE_TASKS: Optional[Sequence[Callable[[], Any]]] = None


def task_context(task: Any, index: int = -1) -> str:
    """A human-readable description of *task* for failure reports.

    Recognises the shapes this repository fans out: an explicit
    ``cell_context`` attribute wins (the matrix drivers set one); a
    :class:`_ShardTask` describes its shard, its name count (which
    tells the cells of one shard index in a multi-size sweep apart),
    its sub-seed and its config; anything else falls back to its name.
    The index is always included so a failure can be mapped back to
    its position in the task list.
    """
    prefix = f"cell {index}" if index >= 0 else "cell"
    explicit = getattr(task, "cell_context", None)
    if explicit:
        return f"{prefix} [{explicit}]"
    spec = getattr(task, "spec", None)
    config = getattr(task, "config", None)
    if spec is not None:
        parts = [f"shard={spec.index}"]
        names = getattr(spec, "names", None)
        if names is not None:
            parts.append(f"names={len(names)}")
        parts.append(f"seed={spec.seed}")
        if config is not None and hasattr(config, "describe"):
            parts.append(f"config='{config.describe()}'")
        return f"{prefix} [{' '.join(parts)}]"
    name = getattr(task, "__name__", None) or type(task).__name__
    return f"{prefix} [{name}]"


class TaskFailure(RuntimeError):
    """A fanned-out task failed, with the failing cell's context.

    ``context`` identifies the cell (shard index/seed/config for shard
    tasks, scenario × policy for matrix cells); ``detail`` carries the
    worker-side traceback text, so the parent's exception explains the
    child's failure instead of a bare pool traceback.
    """

    kind = "exception"

    def __init__(self, context: str, detail: str = ""):
        self.context = context
        self.detail = detail
        message = f"{context} failed"
        if detail:
            message += f":\n{detail.rstrip()}"
        super().__init__(message)

    def __reduce__(self):
        # RuntimeError's default reduce replays ``args`` (the rendered
        # message) into ``__init__``, which takes (context, detail) —
        # so a pickled failure either crashed on unpickle or lost its
        # cell context.  Failures cross the pool's pipes, so
        # reconstruct from the real fields.
        return (type(self), (self.context, self.detail))


class WorkerLost(TaskFailure):
    """A worker process died without reporting a result — killed,
    segfaulted, or ``os._exit`` — instead of hanging the pool."""

    kind = "worker-lost"

    def __init__(self, context: str, exitcode: Optional[int]):
        self.exitcode = exitcode
        if exitcode is not None and exitcode < 0:
            how = f"killed by signal {-exitcode}"
        else:
            how = f"exited with code {exitcode}"
        super().__init__(context, f"worker died without a result ({how})")

    def __reduce__(self):
        return (type(self), (self.context, self.exitcode))


class CellTimeout(TaskFailure):
    """A cell exceeded its wall-clock budget and its worker was
    terminated."""

    kind = "timeout"

    def __init__(self, context: str, timeout: float):
        self.timeout = timeout
        super().__init__(context, f"no result within {timeout:g}s; worker terminated")

    def __reduce__(self):
        return (type(self), (self.context, self.timeout))


class QuarantineError(RuntimeError):
    """Raised by keep-going executors used through the plain
    ``Executor.run`` protocol when cells were quarantined (protocol
    callers cannot consume partial result lists)."""

    def __init__(self, quarantined: Sequence["QuarantinedCell"]):
        self.quarantined = list(quarantined)
        lines = "\n".join(f"  - {cell.describe()}" for cell in quarantined)
        super().__init__(
            f"{len(self.quarantined)} cell(s) quarantined:\n{lines}"
        )


@dataclasses.dataclass
class QuarantinedCell:
    """A poison cell that failed every attempt and was set aside so the
    rest of the sweep could complete."""

    index: int
    context: str
    attempts: int
    error: str  # TaskFailure.kind: exception / worker-lost / timeout
    detail: str = ""

    def describe(self) -> str:
        return (
            f"{self.context}: {self.error} after {self.attempts} attempt(s)"
            + (f" — {self.detail.strip().splitlines()[-1]}" if self.detail else "")
        )


@dataclasses.dataclass
class ExecutorHealth:
    """Aggregate robustness counters for one fan-out.

    These are *operational* facts (how the run went), deliberately kept
    out of merged experiment results so a retried or resumed sweep stays
    byte-identical to an undisturbed one — the same physical/logical
    split the hot-path caches use for their hit counters.
    """

    cells_ok: int = 0
    retries: int = 0
    worker_lost: int = 0
    worker_restarts: int = 0
    timeouts: int = 0
    quarantined: int = 0

    def emit(self, metrics, prefix: str = "executor") -> None:
        """Feed the counters into a metrics registry (None is a no-op)."""
        if metrics is None:
            return
        metrics.inc(f"{prefix}.cells_ok", self.cells_ok)
        metrics.inc(f"{prefix}.retries", self.retries)
        metrics.inc(f"{prefix}.worker_lost", self.worker_lost)
        metrics.inc(f"{prefix}.worker_restarts", self.worker_restarts)
        metrics.inc(f"{prefix}.timeouts", self.timeouts)
        metrics.inc(f"{prefix}.quarantined", self.quarantined)

    def describe(self) -> str:
        return (
            f"ok={self.cells_ok} retries={self.retries} "
            f"lost={self.worker_lost} restarts={self.worker_restarts} "
            f"timeouts={self.timeouts} quarantined={self.quarantined}"
        )


def backoff_schedule(
    retries: int, base: float = 0.05, factor: float = 2.0, cap: float = 2.0
) -> Tuple[float, ...]:
    """The deterministic retry-delay schedule: ``min(cap, base *
    factor**k)`` for the k-th retry.  A pure function of its arguments —
    no jitter — so a re-run retries on exactly the same schedule."""
    return tuple(min(cap, base * factor ** k) for k in range(max(0, retries)))


@dataclasses.dataclass(frozen=True)
class FaultInjection:
    """Failure-injection knobs for tests, docs, and the CI smoke job.

    ``crash_once_cells`` names task indices whose *first* attempt dies
    via ``os._exit`` (a hard worker loss — no exception, no result); a
    marker file under ``marker_dir`` records the attempt so the retry
    succeeds.  Requires process isolation (the executor's fork path):
    injected crashes inside an in-process run would kill the caller.
    """

    marker_dir: str
    crash_once_cells: FrozenSet[int] = frozenset()
    #: Exit code the crashed worker dies with (93 reads as "injected").
    exit_code: int = 93

    def wrap(
        self, index: int, task: Callable[[], T]
    ) -> Callable[[], T]:
        if index not in self.crash_once_cells:
            return task
        marker = os.path.join(self.marker_dir, f"crash-once-{index}")

        def injected() -> T:
            try:
                # O_EXCL: exactly one attempt crashes, every later one runs.
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return task()
            os.close(fd)
            os._exit(self.exit_code)

        injected.cell_context = task_context(task, index)  # type: ignore[attr-defined]
        return injected


def _worker_main(conn, inherited: Sequence[Any]) -> None:
    """Worker body: run inherited tasks by index until the pipe closes.

    The coordinator sends one task index at a time and reads back
    ``("ok", result)`` or ``("error", traceback)``.  End of file at a
    receive (the run is over, or the coordinator is gone) ends the
    worker.  *inherited* holds the coordinator's ends of every pipe the
    fork copied, this worker's own included; closing them leaves this
    worker's pipe open only between it and the coordinator, so each
    side sees the other's exit as end of file.

    ``os._exit`` skips the parent's atexit/finalizer state the fork
    inherited; the parent learns everything it needs from the pipe (or
    from its silence, which becomes :class:`WorkerLost`).
    """
    status = 0
    try:
        for other in inherited:
            other.close()
        while True:
            try:
                index = conn.recv()
            except (EOFError, OSError):
                break
            try:
                payload = ("ok", _ACTIVE_TASKS[index]())  # type: ignore[index]
            except BaseException:
                # Exit and interrupt too: every outcome goes back over
                # the pipe, and an interrupted coordinator closes it.
                payload = ("error", traceback.format_exc())
            try:
                conn.send(payload)
            except Exception:
                status = 1
                break
    finally:
        os._exit(status)


def _affinity(task: Any) -> Optional[int]:
    """The shard sub-seed a task runs on, if it is a shard cell: a
    worker that already ran that sub-seed holds its keys and memos."""
    return getattr(getattr(task, "spec", None), "seed", None)


@dataclasses.dataclass
class _Slot:
    """One long-lived worker of a fork-pool run and what it is doing."""

    process: Any
    conn: Any
    #: Sub-seeds of the tasks this worker has been handed.
    seeds: Set[int] = dataclasses.field(default_factory=set)
    #: The task it is running (``None`` while idle) and its deadline.
    index: Optional[int] = None
    deadline: Optional[float] = None


class SerialExecutor:
    """The in-process fallback: runs every task in the calling process,
    in order.  Used for debugging, platforms without ``fork``, and as
    the reference arm of the equivalence tests."""

    workers = 1

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        return [task() for task in tasks]


class FaultTolerantExecutor:
    """A crash-surviving executor: per-cell timeouts, bounded retries on
    a deterministic backoff schedule, dead-worker detection, and poison
    -cell quarantine.

    Process isolation is used whenever it is needed to contain a
    failure — more than one worker, a timeout to enforce, or
    ``isolate=True`` — and available on the platform.  Each of up to
    ``workers`` slots is forked once per run: the worker inherits the
    task list and is handed one task index at a time over its pipe, so
    it keeps its process-wide memos from cell to cell.  An idle worker
    takes the first due task whose shard sub-seed (``task.spec.seed``)
    it has already run, else the first due task, so the cells of one
    sub-seed share the keys and memos that sub-seed built.  A worker
    that is lost or timed out is reaped and a fresh fork takes its
    slot.  Otherwise tasks run in-process with the same
    retry/quarantine semantics (minus crash containment, which only a
    separate process can provide).

    ``FaultTolerantExecutor(workers=n, retries=0, keep_going=False)``
    is the plain fail-fast pool: the first failing cell raises its
    typed failure.

    Failure handling:

    * a task exception is wrapped in :class:`TaskFailure` carrying the
      cell's context and the worker traceback;
    * a worker that dies without reporting (killed, ``os._exit``,
      segfault) becomes :class:`WorkerLost` — detected promptly from
      the closed result pipe, never a silent hang;
    * a cell that exceeds ``timeout`` has its worker terminated and
      becomes :class:`CellTimeout`;
    * a task exception leaves its worker running for later tasks; a
      lost or timed-out worker is replaced by a fresh fork;
    * each failed cell is retried up to ``retries`` times, delayed by
      :func:`backoff_schedule`; a cell that fails every attempt is
      **quarantined** (``keep_going=True``, the default) so healthy
      cells still complete, or raised immediately (``keep_going=False``,
      i.e. fail-fast).

    ``run_with_quarantine`` streams results to an ``on_result`` callback
    in the parent as cells complete — the hook the crash-safe store uses
    to commit cells incrementally, so a killed sweep keeps its finished
    work.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 2,
        keep_going: bool = True,
        backoff_base: float = 0.05,
        isolate: Optional[bool] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.keep_going = keep_going
        self.backoff = backoff_schedule(retries, base=backoff_base)
        self.isolate = isolate

    @staticmethod
    def fork_available() -> bool:
        return "fork" in multiprocessing.get_all_start_methods()

    def _isolating(self, task_count: int) -> bool:
        if not self.fork_available():
            return False
        if self.isolate is not None:
            return self.isolate
        return self.workers > 1 and task_count > 1 or self.timeout is not None

    # -- Executor protocol -------------------------------------------------

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Protocol-compatible entry: the full result list or an
        exception.  Keep-going runs that quarantined cells raise
        :class:`QuarantineError` (a partial list would silently
        misalign with the task list)."""
        results, quarantined, _ = self.run_with_quarantine(tasks)
        if quarantined:
            raise QuarantineError(quarantined)
        return [result for result in results]  # type: ignore[misc]

    # -- full-fat API ------------------------------------------------------

    def run_with_quarantine(
        self,
        tasks: Sequence[Callable[[], T]],
        on_result: Optional[Callable[[int, T], None]] = None,
    ) -> Tuple[List[Optional[T]], List[QuarantinedCell], ExecutorHealth]:
        """Run *tasks*, surviving failures.

        Returns ``(results, quarantined, health)``: ``results`` is
        index-aligned with *tasks* (``None`` for quarantined cells),
        ``quarantined`` lists the poison cells, and ``health`` the
        run's robustness counters.  ``on_result`` fires in the parent
        as each cell's result arrives (before slower cells finish).
        With ``keep_going=False`` the first exhausted cell raises its
        typed failure instead of being quarantined.
        """
        health = ExecutorHealth()
        results: List[Optional[T]] = [None] * len(tasks)
        quarantined: List[QuarantinedCell] = []
        if not tasks:
            return results, quarantined, health
        if self._isolating(len(tasks)):
            self._run_processes(tasks, results, quarantined, health, on_result)
        else:
            self._run_inline(tasks, results, quarantined, health, on_result)
        return results, quarantined, health

    # -- in-process path ---------------------------------------------------

    def _run_inline(self, tasks, results, quarantined, health, on_result):
        for index, task in enumerate(tasks):
            context = task_context(task, index)
            for attempt in range(self.retries + 1):
                try:
                    value = task()
                except Exception:
                    detail = traceback.format_exc()
                    if attempt < self.retries:
                        health.retries += 1
                        delay = self.backoff[attempt]
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    failure = TaskFailure(context, detail)
                    self._fail(
                        index, context, attempt + 1, failure,
                        quarantined, health,
                    )
                    break
                else:
                    results[index] = value
                    health.cells_ok += 1
                    if on_result is not None:
                        on_result(index, value)
                    break

    # -- forked-worker path ------------------------------------------------

    def _run_processes(self, tasks, results, quarantined, health, on_result):
        global _ACTIVE_TASKS
        context_mp = multiprocessing.get_context("fork")
        previous = _ACTIVE_TASKS
        _ACTIVE_TASKS = tasks
        slots: List[_Slot] = []
        #: (not_before, index) — retry delays without blocking the loop.
        pending: List[Tuple[float, int]] = [
            (0.0, index) for index in range(len(tasks))
        ]
        attempts = [0] * len(tasks)
        affinities = [_affinity(task) for task in tasks]

        def fork_slot() -> _Slot:
            conn, child = context_mp.Pipe()
            process = context_mp.Process(
                target=_worker_main,
                args=(child, [slot.conn for slot in slots] + [conn]),
            )
            process.start()
            child.close()
            slots.append(_Slot(process, conn))
            return slots[-1]

        try:
            while pending or any(slot.index is not None for slot in slots):
                now = time.monotonic()
                # Hand due work to idle workers, forking up to `workers`
                # of them; a worker prefers a sub-seed it already ran.
                due = sorted(item for item in pending if item[0] <= now)
                while due:
                    slot = next((s for s in slots if s.index is None), None)
                    if slot is None:
                        if len(slots) >= self.workers:
                            break
                        slot = fork_slot()
                    item = next(
                        (it for it in due if affinities[it[1]] in slot.seeds),
                        due[0],
                    )
                    due.remove(item)
                    pending.remove(item)
                    index = item[1]
                    attempts[index] += 1
                    slot.index = index
                    slot.deadline = (
                        now + self.timeout if self.timeout is not None else None
                    )
                    if affinities[index] is not None:
                        slot.seeds.add(affinities[index])
                    try:
                        slot.conn.send(index)
                    except OSError:
                        pass  # died while idle: reported as lost below
                busy = [slot for slot in slots if slot.index is not None]
                if not busy:
                    # Everything pending is backing off; wait out the
                    # nearest retry without spinning.
                    wake = min(item[0] for item in pending)
                    time.sleep(max(0.0, min(wake - now, _POLL_SECONDS)))
                    continue
                multiprocessing.connection.wait(
                    [slot.conn for slot in busy], timeout=_POLL_SECONDS
                )
                now = time.monotonic()
                for slot in busy:
                    index = slot.index
                    process = slot.process
                    failure: Optional[TaskFailure] = None
                    context = task_context(tasks[index], index)
                    if slot.conn.poll():
                        try:
                            tag, payload = slot.conn.recv()
                        except (EOFError, OSError):
                            process.join(timeout=1.0)
                            failure = WorkerLost(context, process.exitcode)
                        else:
                            slot.index = slot.deadline = None
                            if tag == "ok":
                                results[index] = payload
                                health.cells_ok += 1
                                if on_result is not None:
                                    on_result(index, payload)
                                continue
                            failure = TaskFailure(context, payload)
                    elif not process.is_alive():
                        # Dead without a result: flush any race between
                        # is_alive and a final send before declaring loss.
                        if slot.conn.poll(0):
                            continue  # handle on the next sweep
                        process.join(timeout=1.0)
                        failure = WorkerLost(context, process.exitcode)
                    elif slot.deadline is not None and now >= slot.deadline:
                        failure = CellTimeout(context, self.timeout)
                    else:
                        continue
                    if slot.index is not None:
                        # Lost or timed out: a fresh fork takes its place.
                        slots.remove(slot)
                        self._reap(process, slot.conn, force=True)
                    if isinstance(failure, WorkerLost):
                        health.worker_lost += 1
                    elif isinstance(failure, CellTimeout):
                        health.timeouts += 1
                    if attempts[index] <= self.retries:
                        health.retries += 1
                        if isinstance(failure, (WorkerLost, CellTimeout)):
                            health.worker_restarts += 1
                        delay = self.backoff[attempts[index] - 1]
                        pending.append((time.monotonic() + delay, index))
                    else:
                        self._fail(
                            index, context, attempts[index], failure,
                            quarantined, health,
                        )
        finally:
            _ACTIVE_TASKS = previous
            # An idle worker exits on the closed pipe; a busy one (a
            # fail-fast raise) is terminated.
            for slot in slots:
                busy = slot.index is not None
                self._reap(slot.process, slot.conn, force=busy)

    def _fail(self, index, context, attempts, failure, quarantined, health):
        if not self.keep_going:
            raise failure
        health.quarantined += 1
        quarantined.append(
            QuarantinedCell(
                index=index,
                context=context,
                attempts=attempts,
                error=failure.kind,
                detail=failure.detail,
            )
        )

    @staticmethod
    def _reap(process, reader, force: bool = False) -> None:
        """Join a worker, escalating terminate → kill so no child is
        ever left running or zombied (the no-hung-processes contract)."""
        try:
            reader.close()
        except Exception:
            pass
        if force and process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - terminate() sufficed so far
            process.kill()
            process.join(timeout=5.0)


def run_tasks_fault_tolerant(
    tasks: Sequence[Callable[[], T]],
    parallelism: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    fail_fast: bool = False,
    backoff_base: float = 0.05,
    on_result: Optional[Callable[[int, T], None]] = None,
) -> Tuple[List[Optional[T]], List[QuarantinedCell], ExecutorHealth]:
    """Fan *tasks* out with failure containment.

    Runs *tasks* on a :class:`FaultTolerantExecutor` of
    ``parallelism`` workers and returns an index-aligned result list
    (``None`` where a cell was quarantined), the quarantine record, and
    the run's health counters.
    """
    executor = FaultTolerantExecutor(
        workers=max(parallelism, 1),
        timeout=timeout,
        retries=retries,
        keep_going=not fail_fast,
        backoff_base=backoff_base,
    )
    return executor.run_with_quarantine(tasks, on_result=on_result)


# ----------------------------------------------------------------------
# The sharded experiment runner
# ----------------------------------------------------------------------

def run_shard(
    factory: UniverseFactory,
    config: ResolverConfig,
    spec: ShardSpec,
    trace: bool = False,
) -> ExperimentResult:
    """Run one shard in a fresh universe built from its sub-seed.

    A pure function of its arguments: the shard shares no state with
    its siblings, which is the whole determinism argument.
    """
    universe = factory(spec.seed)
    tracer = Tracer(universe.clock) if trace else None
    metrics = MetricsRegistry() if trace else None
    experiment = LeakageExperiment(
        universe,
        config,
        ptr_fraction=SHARD_PTR_FRACTION,
        dnssec_ok_stub=SHARD_DNSSEC_OK_STUB,
        tracer=tracer,
        metrics=metrics,
    )
    return experiment.run(list(spec.names))


def run_sharded_experiment(
    factory: UniverseFactory,
    config: ResolverConfig,
    names: Sequence[Name],
    seed: int = 0,
    shards: int = 1,
    executor=None,
    trace: bool = False,
) -> ExperimentResult:
    """Shard *names*, run the shards on *executor*, merge
    deterministically: the executor-explicit reference for a sharded
    run.

    Every sharded sweep runs on
    :func:`~repro.core.store.run_stored_cells`; the goldens, the
    equivalence tests, the benches and the smoke tools compare it with
    this function.  *executor* defaults to :class:`SerialExecutor`; any
    executor gives the same bytes for the same shard plan.
    """
    plan = plan_shards(names, shards, seed)
    tasks = [
        _ShardTask(factory=factory, config=config, spec=spec, trace=trace)
        for spec in plan
    ]
    results = (executor or SerialExecutor()).run(tasks)
    return merge_shard_results(
        (spec.index, result) for spec, result in zip(plan, results)
    )


@dataclasses.dataclass(frozen=True)
class _ShardTask:
    """One shard as a picklable zero-argument callable (usable both by
    the fork pool's inheritance handoff and by spawn-style pickling
    when the factory and config pickle)."""

    factory: UniverseFactory
    config: ResolverConfig
    spec: ShardSpec
    trace: bool = False

    def __call__(self) -> ExperimentResult:
        return run_shard(self.factory, self.config, self.spec, trace=self.trace)
