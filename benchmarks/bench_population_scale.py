"""Population-scale replay bench: leak rate and memory vs user count.

Two measurements, recorded in ``BENCH_population.json``:

* **User sweep** — the same query budget replayed by 1/4/16/64
  concurrent users against one shared resolver.  More users means more
  distinct browsing profiles racing a cold shared cache, so the leak
  curve (Case-2 DLV queries per stub query) and the cache-hit rate
  shift with population — the scaling model DOC'd in docs/SCALING.md.
* **Scale arm** — one large replay (100k queries by default,
  ``REPRO_BENCH_REPLAY_QUERIES`` to resize) asserting the streaming
  contract: every query completes, and peak RSS stays under
  ``REPRO_BENCH_REPLAY_RSS_MB`` (default 800 MB) because no packet,
  arrival, or per-query record is ever retained — memory is flat in
  query count by construction.

The RSS bound is deliberately an *absolute* ceiling rather than a
delta: ``ru_maxrss`` is a lifetime high-water mark, so an absolute
bound is the only thing it can honestly assert — and a retained-packet
regression at 100k queries (hundreds of MB of Message objects) blows
through it immediately.
"""

import dataclasses
import json
import os
import platform
import resource
import sys
from pathlib import Path

from repro.core import ReplayParams, run_population_replay

USERS_SWEEP = (1, 4, 16, 64)
SWEEP_QUERIES = int(os.environ.get("REPRO_BENCH_REPLAY_SWEEP_QUERIES", "2000"))
SCALE_QUERIES = int(os.environ.get("REPRO_BENCH_REPLAY_QUERIES", "100000"))
SCALE_USERS = int(os.environ.get("REPRO_BENCH_REPLAY_USERS", "64"))
RSS_LIMIT_MB = float(os.environ.get("REPRO_BENCH_REPLAY_RSS_MB", "800"))
DOMAINS = 80
FILLER = 500
SEED = 2017

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_population.json"


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / divisor


def _host() -> dict:
    """The machine a run was measured on: rates only compare within one."""
    return {
        "cpu_count": os.cpu_count(),
        # CPUs this process may run on (Linux only).
        "affinity": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _params(users: int, queries: int) -> ReplayParams:
    return ReplayParams(
        users=users,
        queries=queries,
        domains=DOMAINS,
        registry_filler=FILLER,
        window_seconds=600.0,
        max_concurrent=min(users, 64),
        seed=SEED,
    )


def _arm_payload(result) -> dict:
    overall = result.overall
    return {
        "queries": overall.queries,
        "failures": overall.failures,
        "simulated_seconds": round(result.simulated_seconds, 1),
        "simulated_qps": round(result.simulated_qps, 4),
        "replay_rate_qps": round(result.replay_rate, 1),
        "wall_seconds": round(result.wall_seconds, 3),
        "dlv_queries": overall.dlv_queries,
        "case1_queries": overall.case1_queries,
        "case2_queries": overall.case2_queries,
        "leaked_domains": len(overall.leaked_domains),
        "leak_rate": round(overall.leak_rate, 5),
        "cache_hit_rate": round(overall.cache_hit_rate, 5),
        "mean_latency": round(overall.mean_latency, 6),
        "peak_in_flight": result.scheduler.peak_active,
        "admission_queued": result.scheduler.queued,
        "threads_created": result.scheduler.threads_created,
        "windows": len(result.windows),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


def _assert_cases_split_dlv(overall) -> None:
    """Every DLV query the registry received is Case-1 or Case-2."""
    assert overall.case1_queries + overall.case2_queries == overall.dlv_queries


def test_population_scale():
    sweep = {}
    for users in USERS_SWEEP:
        result = run_population_replay(_params(users, SWEEP_QUERIES))
        assert result.overall.queries == SWEEP_QUERIES
        assert result.scheduler.completed == SWEEP_QUERIES
        _assert_cases_split_dlv(result.overall)
        sweep[users] = _arm_payload(result)

    scale_params = _params(SCALE_USERS, SCALE_QUERIES)
    scale_result = run_population_replay(scale_params)
    scale = _arm_payload(scale_result)
    assert scale_result.overall.queries == SCALE_QUERIES
    assert scale_result.overall.sessions_completed == SCALE_QUERIES
    _assert_cases_split_dlv(scale_result.overall)

    peak_rss = _peak_rss_mb()
    payload = {
        "host": _host(),
        "sweep_queries": SWEEP_QUERIES,
        "users_sweep": {str(users): sweep[users] for users in USERS_SWEEP},
        "scale": {
            "users": SCALE_USERS,
            "params": dataclasses.asdict(scale_params),
            **scale,
        },
        "peak_rss_mb": round(peak_rss, 1),
        "rss_limit_mb": RSS_LIMIT_MB,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"{'users':>6} {'leak_rate':>10} {'cache_hit':>10} "
          f"{'sim_qps':>9} {'q/wall-s':>9} {'peak_rss':>9}")
    for users in USERS_SWEEP:
        arm = sweep[users]
        print(
            f"{users:>6} {arm['leak_rate']:>10.4f} "
            f"{arm['cache_hit_rate']:>10.2%} {arm['simulated_qps']:>9.3f} "
            f"{arm['replay_rate_qps']:>9.0f} {arm['peak_rss_mb']:>8.0f}M"
        )
    print(
        f"scale: {SCALE_QUERIES} queries / {SCALE_USERS} users -> "
        f"{scale['replay_rate_qps']:.0f} q/wall-s, "
        f"leak-rate {scale['leak_rate']:.4f}, "
        f"peak RSS {peak_rss:.0f} MB (limit {RSS_LIMIT_MB:.0f} MB)"
    )
    print(f"written to {RESULT_PATH.name}")

    # The flat-memory contract: a packet-retention (or arrival-list)
    # regression shows up here as hundreds of MB.
    assert peak_rss < RSS_LIMIT_MB, (
        f"peak RSS {peak_rss:.0f} MB exceeds {RSS_LIMIT_MB:.0f} MB — "
        "population replay is no longer streaming"
    )

    # More users on a cold shared cache leak at least as many distinct
    # domains as one user does.
    assert (
        sweep[USERS_SWEEP[-1]]["leaked_domains"]
        >= sweep[USERS_SWEEP[0]]["leaked_domains"]
    )
