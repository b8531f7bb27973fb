"""Hot-path bench: cached vs uncached, byte-identical by construction.

The optimization pass (crypto memoization, name interning, wire caches)
promises one thing above all else: **results never change**.  This
bench runs the same fig8-style cell — build a standard universe, resolve
the top-``DOMAINS`` workload through a correct BIND configuration —
``REPS`` times per arm, first with every hot-path cache forcibly
disabled (``repro.perf``), then with them enabled from a cold start, and
records in ``BENCH_hotpath.json``:

* per-stage wall clock (``setup`` = universe build, ``resolve`` = the
  experiment loop, with ``validate``/``lookaside`` sub-stage time
  accumulated inside it by instrumenting the validator and the DLV
  searcher);
* cache hit rates — physical rates from ``perf.hotpath_cache_stats()``
  and the logical ``validator.verify_memo_*`` counters from a separate
  metrics-attached run;
* ``byte_identical``: every rep of every arm must produce the same
  ``result_fingerprint``.

Repetition is the point, not padding: sweeps, adversary matrices and
sharded sweeps all rebuild near-identical cells, which is exactly where
the keygen/sign/verify memos amortize.  Within a single cell every
RRSIG input is distinct (the resolver's own DNSKEY/DS caching already
dedupes), so a one-rep bench would understate the caches and a hit-rate
of zero there is expected, not a bug.

Assertions: byte-identity and the resolve-phase speedup floor fire on
every workload size (CI runs a small one via the ``REPRO_BENCH_*``
variables); the ≥2x end-to-end floor fires only at the full default
size, where the constant overheads are properly amortized.
"""

import gc
import os
import statistics
import time

from conftest import record

from repro import perf
from repro.core import (
    LeakageExperiment,
    MetricsRegistry,
    result_fingerprint,
    standard_universe,
    standard_workload,
)
from repro.resolver import correct_bind_config
from repro.resolver.lookaside import DlvLookaside
from repro.resolver.validator import Validator

DOMAINS = int(os.environ.get("REPRO_BENCH_DOMAINS", "150"))
FILLER = int(os.environ.get("REPRO_BENCH_FILLER", "1000"))
REPS = int(os.environ.get("REPRO_BENCH_REPS", "6"))
SEED = 2016

#: Floors.  Resolve-phase is asserted always: the verify memo alone
#: removes every repeated modexp from warm reps.  End-to-end only at
#: full size — tiny workloads are dominated by constant costs.
MIN_RESOLVE_SPEEDUP = 1.5
MIN_END_TO_END_SPEEDUP = 2.0
FULL_SIZE = DOMAINS >= 150 and REPS >= 6


def _instrument(stage):
    """Accumulate validator / look-aside wall clock into *stage*,
    returning an undo callable.  Instrumenting the class keeps the bench
    out of the library's hot path proper."""
    real_validate = Validator.validate_outcome
    real_lookaside = DlvLookaside.try_lookaside

    def timed_validate(self, outcome):
        start = time.perf_counter()
        try:
            return real_validate(self, outcome)
        finally:
            stage["validate"] += time.perf_counter() - start

    def timed_lookaside(self, zone):
        start = time.perf_counter()
        try:
            return real_lookaside(self, zone)
        finally:
            stage["lookaside"] += time.perf_counter() - start

    Validator.validate_outcome = timed_validate
    DlvLookaside.try_lookaside = timed_lookaside

    def undo():
        Validator.validate_outcome = real_validate
        DlvLookaside.try_lookaside = real_lookaside

    return undo


def _run_cell(metrics=None):
    """One fig8-style cell: fresh universe, resolve the workload."""
    workload = standard_workload(DOMAINS, seed=SEED)
    universe = standard_universe(workload, filler_count=FILLER)
    experiment = LeakageExperiment(
        universe, correct_bind_config(), metrics=metrics
    )
    return experiment.run(workload.names(DOMAINS))


def _run_arm(enabled):
    """REPS cells with caches on/off, from a cold cache either way.

    Per-rep setup/resolve times are recorded individually so speedups
    can be computed over medians — a stray GC pause or scheduler blip in
    one rep must not decide an assertion."""
    perf.set_caches_enabled(enabled)
    perf.clear_hotpath_caches()
    stage = {"validate": 0.0, "lookaside": 0.0}
    setup_times, resolve_times = [], []
    undo = _instrument(stage)
    fingerprints = []
    try:
        for _ in range(REPS):
            # Collect between reps (outside the timed windows) so a
            # stray gen-2 pass doesn't land inside one rep's numbers.
            gc.collect()
            rep_start = time.perf_counter()
            workload = standard_workload(DOMAINS, seed=SEED)
            universe = standard_universe(workload, filler_count=FILLER)
            experiment = LeakageExperiment(universe, correct_bind_config())
            setup_times.append(time.perf_counter() - rep_start)
            resolve_start = time.perf_counter()
            result = experiment.run(workload.names(DOMAINS))
            resolve_times.append(time.perf_counter() - resolve_start)
            fingerprints.append(result_fingerprint(result))
    finally:
        undo()
    stage["setup"] = sum(setup_times)
    stage["resolve"] = sum(resolve_times)
    total = stage["setup"] + stage["resolve"]
    return total, stage, setup_times, resolve_times, fingerprints


def _hit_rates():
    """Physical cache stats, with a derived rate where meaningful."""
    rates = {}
    for name, stats in perf.hotpath_cache_stats().items():
        entry = dict(stats)
        lookups = entry.get("hits", 0) + entry.get("misses", 0)
        if lookups:
            entry["hit_rate"] = round(entry["hits"] / lookups, 4)
        rates[name] = entry
    return rates


def test_hotpath_speedup():
    # Uncached reference first, then the cached arm from cold.
    (
        uncached_total,
        uncached_stage,
        uncached_setup,
        uncached_resolve,
        uncached_prints,
    ) = _run_arm(enabled=False)
    (
        cached_total,
        cached_stage,
        cached_setup,
        cached_resolve,
        cached_prints,
    ) = _run_arm(enabled=True)
    cache_stats = _hit_rates()

    reference = uncached_prints[0]
    byte_identical = all(
        fp == reference for fp in uncached_prints + cached_prints
    )
    assert byte_identical, (
        "hot-path caches changed a result fingerprint — the one thing "
        "they must never do"
    )

    # Logical memo counters, from a separate metrics-attached cached run
    # (metrics snapshots are part of the fingerprint, so the timed arms
    # above run without a registry).
    metrics = MetricsRegistry()
    _run_cell(metrics=metrics)
    counters = metrics.snapshot()["counters"]
    memo_counters = {
        name: value
        for name, value in counters.items()
        if name
        in (
            "validator.verify_memo_hits",
            "validator.verify_memo_misses",
            "validator.crypto_verify_calls",
            "validator.signature_checks",
        )
    }

    end_to_end = uncached_total / cached_total
    # Steady-state resolve speedup: medians, with the cached arm's cold
    # first rep excluded when there are warm reps to measure — the
    # caches promise nothing about their own fill cost.
    cached_warm = cached_resolve[1:] if len(cached_resolve) > 1 else cached_resolve
    resolve_speedup = statistics.median(uncached_resolve) / statistics.median(
        cached_warm
    )

    payload = {
        "workload": {
            "domains": DOMAINS,
            "filler": FILLER,
            "reps": REPS,
            "seed": SEED,
        },
        "uncached": {
            "total_seconds": round(uncached_total, 4),
            "stages": {k: round(v, 4) for k, v in uncached_stage.items()},
            "setup_per_rep": [round(t, 4) for t in uncached_setup],
            "resolve_per_rep": [round(t, 4) for t in uncached_resolve],
        },
        "cached": {
            "total_seconds": round(cached_total, 4),
            "stages": {k: round(v, 4) for k, v in cached_stage.items()},
            "setup_per_rep": [round(t, 4) for t in cached_setup],
            "resolve_per_rep": [round(t, 4) for t in cached_resolve],
        },
        "speedup": {
            "end_to_end": round(end_to_end, 4),
            # median uncached rep over median warm cached rep
            "resolve_phase": round(resolve_speedup, 4),
            "setup_phase": round(
                uncached_stage["setup"] / cached_stage["setup"], 4
            ),
        },
        "cache_stats": cache_stats,
        "memo_counters": memo_counters,
        "byte_identical": byte_identical,
    }
    written = record("hotpath", payload)

    print()
    print(f"workload: {DOMAINS} domains / {FILLER} filler x {REPS} reps")
    for label, total, stage in (
        ("uncached", uncached_total, uncached_stage),
        ("cached  ", cached_total, cached_stage),
    ):
        print(
            f"{label}  {total:.3f}s  (setup {stage['setup']:.3f}s, "
            f"resolve {stage['resolve']:.3f}s of which validate "
            f"{stage['validate']:.3f}s, lookaside {stage['lookaside']:.3f}s)"
        )
    print(
        f"speedup   end-to-end {end_to_end:.2f}x, "
        f"resolve {resolve_speedup:.2f}x"
    )
    print(f"byte identical: {byte_identical}")
    print(f"written to {written.name}")

    assert resolve_speedup >= MIN_RESOLVE_SPEEDUP, (
        f"resolve-phase speedup {resolve_speedup:.2f}x below "
        f"{MIN_RESOLVE_SPEEDUP}x"
    )
    if FULL_SIZE:
        assert end_to_end >= MIN_END_TO_END_SPEEDUP, (
            f"end-to-end speedup {end_to_end:.2f}x below "
            f"{MIN_END_TO_END_SPEEDUP}x at full size"
        )
    else:
        print(
            f"end-to-end floor skipped: workload below full size "
            f"({DOMAINS} domains, {REPS} reps)"
        )
