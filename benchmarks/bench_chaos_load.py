"""Chaos-under-load bench: availability vs load during a DLV outage.

The serial chaos matrix measures a registry outage one stub query at a
time; this bench replays the same outage while 4/16/64 concurrent users
share the resolver, and records what only load can show — recorded in
``BENCH_chaos_load.json``:

* **servfail mode** — the registry answers SERVFAIL throughout
  ``[FAULT_START, FAULT_END)`` and the resolver runs the strict
  ``DlvOutagePolicy.SERVFAIL`` policy.  The during-fault SERVFAIL rate
  *falls* as load rises: a busier shared cache warms faster, so fewer
  cold resolutions need the registry while it is down.  The same
  mechanism moves the leak-rate curve — which is the paper's Case-2
  exposure, now as a function of concurrency.
* **blackhole mode** — the registry black-holes (queries vanish) and
  the resolver serves stale.  Availability holds, but the during-fault
  windows surface the cost: upstream retry storms, p99 session latency
  inflation (seconds of backoff instead of milliseconds), and
  served-stale answers once registry entries pass their TTL inside the
  outage.

Every load level replays the *same simulated timespan* over the *same
fixed outage window* (``ReplayLoad.query_budget`` scales the query
budget as users × qps × duration), so the curves are comparable: one
fault, three populations.

Environment overrides for CI smoke runs:
``REPRO_BENCH_CHAOS_USERS`` (comma list, default ``4,16,64``),
``REPRO_BENCH_CHAOS_DURATION`` (default 7200 simulated s),
``REPRO_BENCH_CHAOS_DOMAINS`` / ``_FILLER`` (default 120 / 400).
"""

import dataclasses
import json
import os
from pathlib import Path

from repro.core import (
    ReplayLoad,
    registry_outage_scenario,
    run_chaos_replay,
    standard_universe,
    standard_workload,
)
from repro.dnscore import RCode
from repro.resolver import DlvOutagePolicy, correct_bind_config

USERS_SWEEP = tuple(
    int(part)
    for part in os.environ.get("REPRO_BENCH_CHAOS_USERS", "4,16,64").split(",")
)
DURATION = float(os.environ.get("REPRO_BENCH_CHAOS_DURATION", "7200"))
DOMAINS = int(os.environ.get("REPRO_BENCH_CHAOS_DOMAINS", "120"))
FILLER = int(os.environ.get("REPRO_BENCH_CHAOS_FILLER", "400"))
PER_USER_QPS = 0.05
WINDOW_SECONDS = 600.0
#: The scripted outage span: starts after the cold ramp, ends with
#: enough replay left to watch the recovery.
FAULT_START = 900.0
FAULT_END = min(DURATION - 600.0, DURATION * 11 / 12)
SEED = 2017

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos_load.json"

MODES = {
    # (outage rcode, resolver config)
    "servfail": (
        RCode.SERVFAIL,
        correct_bind_config(dlv_outage_policy=DlvOutagePolicy.SERVFAIL),
    ),
    "blackhole": (
        None,
        dataclasses.replace(correct_bind_config(), serve_stale=True),
    ),
}


def _phase_payload(window) -> dict:
    return {
        "queries": window.queries,
        "failures": window.failures,
        "servfail_rate": round(window.servfail_rate, 5),
        "timeout_rate": round(window.timeout_rate, 5),
        "leak_rate": round(window.leak_rate, 5),
        "case2_queries": window.case2_queries,
        "leaked_domains": len(window.leaked_domains),
        "retries": window.retries,
        "stale_served": window.stale_served,
        "admission_queued": window.admission_queued,
        "admission_rejected": window.admission_rejected,
        "latency_p50": window.latency_p50,
        "latency_p99": window.latency_p99,
        "cache_hit_rate": round(window.cache_hit_rate, 5),
    }


def _run_cell(mode: str, users: int):
    rcode, config = MODES[mode]
    workload = standard_workload(DOMAINS, seed=2016)
    universe = standard_universe(workload, filler_count=FILLER, seed=2016)
    names = [spec.name for spec in workload.domains]
    load = ReplayLoad(
        users=users,
        per_user_qps=PER_USER_QPS,
        duration_seconds=DURATION,
        window_seconds=WINDOW_SECONDS,
        max_concurrent=min(users, 64),
        seed=SEED,
    )
    return run_chaos_replay(
        universe,
        config,
        names,
        scenario=registry_outage_scenario(
            rcode=rcode, start=FAULT_START, end=FAULT_END
        ),
        scenario_label=f"registry-{mode}",
        policy_label=mode,
        load=load,
    )


def test_chaos_load():
    assert len(USERS_SWEEP) >= 3, "availability curves need >= 3 load levels"
    curves = {}
    for mode in MODES:
        curves[mode] = {}
        for users in USERS_SWEEP:
            result = _run_cell(mode, users)
            overall = result.overall
            assert overall.queries == result.load.query_budget()
            assert result.fault_bounds == (FAULT_START, FAULT_END)
            # Every DLV query the registry received is Case-1 or Case-2.
            assert (
                overall.case1_queries + overall.case2_queries
                == overall.dlv_queries
            )
            curves[mode][users] = {
                "load": {
                    "users": users,
                    "per_user_qps": PER_USER_QPS,
                    "queries": result.load.query_budget(),
                },
                "overall": _phase_payload(overall),
                "before_fault": _phase_payload(result.before_fault()),
                "during_fault": _phase_payload(result.during_fault()),
                "after_fault": _phase_payload(result.after_fault()),
                "peak_in_flight": result.scheduler.peak_active,
                "wall_seconds": round(result.wall_seconds, 3),
            }

    payload = {
        "fault_window": [FAULT_START, FAULT_END],
        "duration_seconds": DURATION,
        "domains": DOMAINS,
        "registry_filler": FILLER,
        "modes": {
            mode: {str(users): curves[mode][users] for users in USERS_SWEEP}
            for mode in MODES
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    print()
    print(f"fault window [{FAULT_START:g}, {FAULT_END:g}) over {DURATION:g}s")
    header = (
        f"{'mode':>10} {'users':>6} {'during_sf':>10} {'during_to':>10} "
        f"{'leak':>7} {'retries':>8} {'stale':>6} {'p99':>6}"
    )
    print(header)
    for mode in MODES:
        for users in USERS_SWEEP:
            during = curves[mode][users]["during_fault"]
            print(
                f"{mode:>10} {users:>6} {during['servfail_rate']:>10.3f} "
                f"{during['timeout_rate']:>10.4f} {during['leak_rate']:>7.3f} "
                f"{during['retries']:>8} {during['stale_served']:>6} "
                f"{during['latency_p99']:>6.2f}"
            )
    print(f"written to {RESULT_PATH.name}")

    smallest = USERS_SWEEP[0]
    strict = curves["servfail"][smallest]
    # The strict policy fails what it cannot validate: the outage window
    # must show stub-visible SERVFAILs that the recovery does not.
    assert strict["during_fault"]["servfail_rate"] > 0.0
    assert (
        strict["during_fault"]["servfail_rate"]
        >= strict["after_fault"]["servfail_rate"]
    )
    # The black-holed registry triggers retry storms in the fault span.
    blackhole = curves["blackhole"][smallest]
    assert blackhole["during_fault"]["retries"] > 0
    assert blackhole["during_fault"]["retries"] >= (
        blackhole["before_fault"]["retries"]
    )
    # Availability (non-SERVFAIL answers) survives serve-stale mode.
    assert blackhole["overall"]["servfail_rate"] < 0.05
