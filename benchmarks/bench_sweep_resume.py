"""Store bench: what crash-safety costs, and what resume saves.

Four arms over the same sharded workload, results (with the host) in
``BENCH_store.json``:

* **plain** — ``run_sharded_experiment`` with no store (the baseline);
* **cold**  — ``run_stored_sweep`` against an empty store: the
  baseline plus commit overhead (pickle + digest + fsync + rename);
* **warm**  — the same stored sweep again: every cell is a verified
  reuse, no resolution happens at all;
* **pooled** — ``sharded_leakage_sweep`` over two sizes (half the
  names, then all of them) on two workers into a fresh store: the
  shape ``repro sweep --shards K --parallelism 2 --store`` runs, both
  sizes in one fan-out, each cell committed by the worker that ran it.

Two things are asserted unconditionally: every arm fingerprints
identically to its serial plain run (the store and the pool never
change a byte of output), and the warm arm actually reused every
cell.  The warm-vs-plain speedup is recorded
but only asserted loosely (≥1x) — the win is already decisive at this
size and grows with the workload, and a tight bound would make the
bench flaky on the smallest CI containers.
"""

import tempfile
import time
from pathlib import Path

from conftest import record
from repro.analysis import sharded_leakage_sweep
from repro.core import (
    ResultStore,
    SerialExecutor,
    result_fingerprint,
    run_sharded_experiment,
    run_stored_sweep,
    standard_universe_factory,
    standard_workload,
)
from repro.resolver import correct_bind_config

DOMAINS = 40
FILLER = 400
SHARDS = 4
SEED = 2016


def _workload():
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    return factory, names


def test_store_cold_vs_warm():
    factory, names = _workload()

    # Untimed warm-up: fill the process-global hot-path caches so the
    # arms measure store mechanics, not who ran first (see
    # docs/PERFORMANCE.md for what those caches memoise).
    run_sharded_experiment(
        factory,
        correct_bind_config(),
        names,
        seed=SEED,
        shards=SHARDS,
        executor=SerialExecutor(),
    )

    start = time.perf_counter()
    plain = run_sharded_experiment(
        factory,
        correct_bind_config(),
        names,
        seed=SEED,
        shards=SHARDS,
        executor=SerialExecutor(),
    )
    plain_seconds = time.perf_counter() - start
    reference = result_fingerprint(plain)

    root = tempfile.mkdtemp(prefix="bench-store-")

    start = time.perf_counter()
    cold = run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=SEED,
        shards=SHARDS,
        store=ResultStore(root),
    )
    cold_seconds = time.perf_counter() - start
    assert result_fingerprint(cold.result) == reference
    assert cold.cells_rerun == SHARDS and cold.cells_reused == 0

    start = time.perf_counter()
    warm = run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=SEED,
        shards=SHARDS,
        store=ResultStore(root),
    )
    warm_seconds = time.perf_counter() - start
    assert result_fingerprint(warm.result) == reference
    assert warm.cells_reused == SHARDS and warm.cells_rerun == 0
    assert plain_seconds / warm_seconds >= 1.0, (
        "an all-reuse sweep should never be slower than resolving"
    )

    # Two sizes on two workers; the larger size is the plain arm's.
    half = DOMAINS // 2
    half_plain = run_sharded_experiment(
        standard_universe_factory(
            half, filler_count=FILLER, workload_seed=SEED
        ),
        correct_bind_config(),
        standard_workload(half, seed=SEED).names(half),
        seed=SEED,
        shards=SHARDS,
        executor=SerialExecutor(),
    )
    outcomes = []
    start = time.perf_counter()
    sharded_leakage_sweep(
        sizes=(half, DOMAINS),
        seed=SEED,
        filler_count=FILLER,
        shards=SHARDS,
        parallelism=2,
        store=ResultStore(tempfile.mkdtemp(prefix="bench-store-")),
        outcomes=outcomes,
    )
    pooled_seconds = time.perf_counter() - start
    assert [result_fingerprint(outcome.result) for outcome in outcomes] == [
        result_fingerprint(half_plain),
        reference,
    ]
    assert [outcome.cells_rerun for outcome in outcomes] == [SHARDS, SHARDS]

    store_bytes = sum(
        path.stat().st_size for path in Path(root).glob("*/*.cell")
    )
    payload = {
        "workload": {
            "domains": DOMAINS,
            "filler": FILLER,
            "shards": SHARDS,
            "seed": SEED,
        },
        "plain_seconds": round(plain_seconds, 4),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "commit_overhead": round(cold_seconds / plain_seconds, 4),
        "warm_speedup": round(plain_seconds / warm_seconds, 2),
        "store_bytes": store_bytes,
        "bytes_per_cell": store_bytes // SHARDS,
        "pooled": {
            "sizes": [half, DOMAINS],
            "workers": 2,
            "cells": 2 * SHARDS,
            "seconds": round(pooled_seconds, 4),
        },
        "byte_identical": True,
    }
    written = record("store", payload)

    print()
    print(f"plain (no store)  {plain_seconds:.3f}s")
    print(f"cold  (commit)    {cold_seconds:.3f}s "
          f"({cold_seconds / plain_seconds:.2f}x of plain)")
    print(f"warm  (all reuse) {warm_seconds:.3f}s "
          f"({plain_seconds / warm_seconds:.1f}x speedup)")
    print(f"pooled (2 sizes)  {pooled_seconds:.3f}s "
          f"({2 * SHARDS} cells on 2 workers)")
    print(f"store size        {store_bytes} bytes "
          f"({store_bytes // SHARDS} per cell)")
    print(f"written to {written.name}")
