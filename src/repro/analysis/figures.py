"""Regeneration of the paper's figures (8-12) as data series.

Each ``figN_*`` function runs the underlying experiment and returns the
plotted series as rows plus an ASCII rendering — the "same rows/series
the paper reports", printable by the benches.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..dnscore import RRType
from ..resolver import ResolverConfig, correct_bind_config
from ..workloads import (
    DitlParams,
    UniverseParams,
    evaluate_txt_overhead,
    generate_trace,
)
from ..core import (
    ExperimentResult,
    LeakageExperiment,
    Remedy,
    run_remedy,
    standard_experiment,
    standard_workload,
)
from ..core.overhead import SignalingCost
from ..core.setup import (
    DEFAULT_REGISTRY_FILLER_COUNT,
    EXPERIMENT_MODULUS_BITS,
    standard_universe,
)
from .render import format_series, format_table, percent


# ----------------------------------------------------------------------
# Figures 8 and 9 — DLV query counts and leaked-domain proportion vs N
# ----------------------------------------------------------------------

@dataclasses.dataclass
class LeakageSweepPoint:
    """One size of the Figs 8/9 sweep.  Every value but ``domains`` is
    ``None`` when no cell of the size was measured, and Figs 8/9 then
    print ``missing``."""

    domains: int
    dlv_queries: Optional[int]
    leaked_domains: Optional[int]
    proportion: Optional[float]
    utility: Optional[float]

    @classmethod
    def of(cls, size: int, result: ExperimentResult) -> "LeakageSweepPoint":
        """The point of one independent top-*size* run, such as the
        merged result of one size of a sharded sweep."""
        leak = result.leakage
        return cls(
            domains=size,
            dlv_queries=leak.dlv_queries,
            leaked_domains=leak.leaked_count,
            proportion=leak.leaked_count / size if size else 0.0,
            utility=leak.utility_fraction,
        )


def leakage_sweep(
    sizes: Sequence[int] = (100, 1000, 10000),
    seed: int = 2016,
    filler_count: int = DEFAULT_REGISTRY_FILLER_COUNT,
    config: Optional[ResolverConfig] = None,
) -> List[LeakageSweepPoint]:
    """One incremental run over the top-N prefixes (shared caches, as
    when one resolver serves a user population working down the list)."""
    workload = standard_workload(max(sizes), seed=seed)
    universe = standard_universe(workload, filler_count=filler_count)
    experiment = LeakageExperiment(universe, config or correct_bind_config())
    points: List[LeakageSweepPoint] = []
    cumulative_leaked = 0
    cumulative_queries = 0
    previous = 0
    for size in sorted(sizes):
        result = experiment.run(workload.names(size)[previous:])
        cumulative_leaked += result.leakage.leaked_count
        cumulative_queries += result.leakage.dlv_queries
        points.append(
            LeakageSweepPoint(
                domains=size,
                dlv_queries=cumulative_queries,
                leaked_domains=cumulative_leaked,
                proportion=cumulative_leaked / size,
                utility=result.leakage.utility_fraction,
            )
        )
        previous = size
    return points


def sharded_leakage_sweep(
    sizes: Sequence[int] = (100, 1000, 10000),
    seed: int = 2016,
    filler_count: int = DEFAULT_REGISTRY_FILLER_COUNT,
    config: Optional[ResolverConfig] = None,
    shards: Optional[int] = None,
    parallelism: int = 1,
    store=None,
    fail_fast: bool = False,
    timeout: Optional[float] = None,
    retries: int = 2,
    outcomes: Optional[list] = None,
) -> List[LeakageSweepPoint]:
    """The Figs 8/9 sweep on the sharded parallel runner.

    Semantics differ from :func:`leakage_sweep` in one respect: each
    size point is an *independent* sharded run over the top-N names
    (every shard gets a fresh resolver from a derived sub-seed), not
    one incremental warm-cache walk — the population-of-resolvers
    reading of the paper's sweep rather than the single-resolver one.
    For a fixed ``(seed, shards)`` the points are byte-identical
    regardless of ``parallelism``; ``shards`` defaults to
    ``max(parallelism, 1)``, so pin it whenever the worker count
    varies.

    Every size's cells (:func:`~repro.core.setup.standard_sweep_cells`)
    run in one :func:`~repro.core.store.run_stored_cells` call on the
    fault-tolerant executor, with per-cell ``timeout`` and ``retries``.
    With ``store`` (a :class:`~repro.core.store.ResultStore`) the
    sweep is also crash-safe: cells commit where they run, an
    interrupted sweep resumes from the committed cells, and only
    missing/corrupt cells re-run.  One
    :class:`~repro.core.store.SweepOutcome` per size, in size order, is
    appended to ``outcomes`` when given; quarantined cells make the
    affected point *partial* (keep-going default) or raise
    (``fail_fast=True``).
    """
    from ..core import run_stored_cells, standard_sweep_cells

    swept = run_stored_cells(
        standard_sweep_cells(
            sizes,
            filler_count=filler_count,
            seed=seed,
            config=config,
            shards=shards if shards is not None else max(parallelism, 1),
        ),
        store=store,
        parallelism=parallelism,
        timeout=timeout,
        retries=retries,
        fail_fast=fail_fast,
    )
    if outcomes is not None:
        outcomes.extend(swept)
    return [
        LeakageSweepPoint.of(size, outcome.result)
        for size, outcome in zip(sorted(sizes), swept)
    ]


def fig8_dlv_queries(points: Sequence[LeakageSweepPoint]) -> Tuple[List[dict], str]:
    rows = [
        {
            "domains": p.domains,
            "dlv_queries": p.dlv_queries,
            "leaked_domains": p.leaked_domains,
        }
        for p in points
    ]
    text = format_series(
        "# domains",
        "leaked domains (cumulative)",
        [(p.domains, p.leaked_domains) for p in points],
        title="Fig 8: number of DLV-leaked domains vs queried domains",
    )
    return rows, text


def fig9_leak_proportion(points: Sequence[LeakageSweepPoint]) -> Tuple[List[dict], str]:
    rows = [
        {"domains": p.domains, "proportion": p.proportion} for p in points
    ]
    text = format_series(
        "# domains",
        "leaked proportion",
        [(p.domains, p.proportion) for p in points],
        title="Fig 9: proportion of leaked domains (decays with N, log-x)",
    )
    return rows, text


# ----------------------------------------------------------------------
# Figure 10 — baseline / overhead / total per metric (Table 5 visual)
# ----------------------------------------------------------------------

def fig10_overhead_breakdown(table5_rows: Sequence[dict]) -> Tuple[List[dict], str]:
    rows = list(table5_rows)
    sections = []
    for metric, base_key, ovh_key, unit in (
        ("response time", "time_baseline", "time_overhead", "s"),
        ("traffic", "traffic_baseline_mb", "traffic_overhead_mb", "MB"),
        ("queries", "queries_baseline", "queries_overhead", ""),
    ):
        body = format_table(
            ["# domains", f"baseline ({unit})", f"overhead ({unit})", "total"],
            [
                (
                    r["size"],
                    f"{r[base_key]:,.2f}",
                    f"{r[ovh_key]:,.2f}",
                    f"{r[base_key] + r[ovh_key]:,.2f}",
                )
                for r in rows
            ],
            title=f"Fig 10 ({metric})",
        )
        sections.append(body)
    return rows, "\n\n".join(sections)


# ----------------------------------------------------------------------
# Figure 11 — DLV vs TXT vs Z bit across the three metrics
# ----------------------------------------------------------------------

def fig11_remedy_comparison(
    size: int = 200,
    seed: int = 2016,
    filler_count: int = 20000,
) -> Tuple[List[dict], str]:
    """The three options on a common workload.

    Paper accounting: each option's *total* = the vanilla-DLV baseline
    plus the option's signalling cost (TXT exchanges for TXT; nothing
    extra for the Z bit, which rides in existing responses).  We also
    report the fully-deployed totals our simulator measures, where
    remedy gating *reduces* traffic by suppressing DLV queries.
    """
    workload = standard_workload(size, seed=seed)
    names = workload.names(size)
    base_params = UniverseParams(
        modulus_bits=EXPERIMENT_MODULUS_BITS,
        registry_filler=tuple(workload.registry_filler(filler_count)),
    )
    runs = {
        remedy: run_remedy(
            remedy, workload.domains, names, correct_bind_config(), base_params
        )
        for remedy in (Remedy.NONE, Remedy.TXT, Remedy.ZBIT)
    }
    baseline = runs[Remedy.NONE].result.overhead
    txt_cost = SignalingCost.of_query_type(
        runs[Remedy.TXT].result.capture, RRType.TXT
    )
    rows = [
        {
            "option": "DLV",
            "time_s": baseline.response_time,
            "traffic_mb": baseline.traffic_mb,
            "queries": baseline.queries_issued,
            "deployed_time_s": baseline.response_time,
            "deployed_traffic_mb": baseline.traffic_mb,
            "deployed_queries": baseline.queries_issued,
            "leaked": runs[Remedy.NONE].result.leakage.leaked_count,
        },
        {
            "option": "TXT",
            "time_s": baseline.response_time + txt_cost.seconds,
            "traffic_mb": baseline.traffic_mb + txt_cost.bytes / 1e6,
            "queries": baseline.queries_issued + txt_cost.exchanges,
            "deployed_time_s": runs[Remedy.TXT].result.overhead.response_time,
            "deployed_traffic_mb": runs[Remedy.TXT].result.overhead.traffic_mb,
            "deployed_queries": runs[Remedy.TXT].result.overhead.queries_issued,
            "leaked": runs[Remedy.TXT].result.leakage.leaked_count,
        },
        {
            "option": "Z bit",
            "time_s": baseline.response_time,
            "traffic_mb": baseline.traffic_mb,
            "queries": baseline.queries_issued,
            "deployed_time_s": runs[Remedy.ZBIT].result.overhead.response_time,
            "deployed_traffic_mb": runs[Remedy.ZBIT].result.overhead.traffic_mb,
            "deployed_queries": runs[Remedy.ZBIT].result.overhead.queries_issued,
            "leaked": runs[Remedy.ZBIT].result.leakage.leaked_count,
        },
    ]
    text = format_table(
        [
            "Option",
            "Time (s, paper acct)", "Traffic (MB)", "Queries",
            "Time (s, deployed)", "Traffic (MB, deployed)", "Queries (deployed)",
            "Leaked domains",
        ],
        [
            (
                r["option"],
                f"{r['time_s']:.2f}", f"{r['traffic_mb']:.3f}", r["queries"],
                f"{r['deployed_time_s']:.2f}",
                f"{r['deployed_traffic_mb']:.3f}",
                r["deployed_queries"],
                r["leaked"],
            )
            for r in rows
        ],
        title=f"Fig 11: DLV vs TXT vs Z bit ({size} domains)",
    )
    return rows, text


# ----------------------------------------------------------------------
# Figure 12 — DITL trace experiment
# ----------------------------------------------------------------------

def fig12_ditl(
    scale: float = 0.02, seed: int = 42
) -> Tuple[Dict[str, object], str]:
    """The DITL trace experiment: per-minute volume, cumulative queries,
    and cumulative TXT overhead vs baseline."""
    params = DitlParams(seed=seed, scale=scale)
    trace = generate_trace(params)
    result = evaluate_txt_overhead(trace, params)
    rescale = trace.rescale_factor()
    summary = {
        "minutes": int(len(trace.per_minute)),
        "scale": scale,
        "total_queries_scaled": trace.total_queries,
        "total_queries_rescaled": int(trace.total_queries * rescale),
        "rate_min_qpm": int(trace.per_minute.min() * rescale),
        "rate_max_qpm": int(trace.per_minute.max() * rescale),
        "overhead_bytes_scaled": result.total_overhead_bytes,
        "overhead_gb_rescaled": result.rescaled_total_overhead_bytes() / 1e9,
        "overhead_mbps_rescaled": result.overhead_mbps() * rescale,
        "baseline_gb_rescaled": result.total_baseline_bytes * rescale / 1e9,
    }
    checkpoints = list(range(0, len(trace.per_minute), max(1, len(trace.per_minute) // 14)))
    series_a = [(m, int(trace.per_minute[m] * rescale)) for m in checkpoints]
    cumulative = trace.cumulative()
    series_b = [(m, int(cumulative[m] * rescale)) for m in checkpoints]
    series_c = [
        (m, result.cumulative_overhead_bytes[m] * rescale / 1e9)
        for m in checkpoints
    ]
    text = "\n\n".join(
        [
            format_series("minute", "queries/min", series_a, title="Fig 12a: per-minute query volume"),
            format_series("minute", "cumulative queries", series_b, title="Fig 12b: cumulative queries"),
            format_series("minute", "cumulative TXT overhead (GB)", series_c, title="Fig 12c: cumulative TXT-signalling overhead"),
            (
                f"total queries (rescaled): {summary['total_queries_rescaled']:,} "
                f"(paper: 92,705,013)\n"
                f"TXT overhead (rescaled): {summary['overhead_gb_rescaled']:.2f} GB "
                f"over 7 h = {summary['overhead_mbps_rescaled']:.2f} Mbps "
                f"(paper: ~1.2 GB, 0.38 Mbps)"
            ),
        ]
    )
    return summary, text
