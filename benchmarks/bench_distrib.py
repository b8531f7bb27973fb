"""Lease-worker bench: what the lease discipline costs.

Three arms over the same sharded workload, results in
``BENCH_distrib.json`` with the host they were measured on:

* **serial**     — ``SerialExecutor``: the single-process baseline;
* **pool**       — ``FaultTolerantExecutor`` (2 workers, no retries):
  the fork-pool ceiling with no coordination files at all;
* **distributed** — one in-process ``run_worker`` draining the same
  four cells from a fresh ``ResultStore``: every cell goes through
  claim → heartbeat → execute → commit → release, and
  ``collect_sweep`` merges the committed cells.

Asserted unconditionally: all three arms fingerprint identically (the
lease layer never changes a byte of output), and the distributed arm
leaked no lease files.  The **lease overhead** — the measured cost of
one claim/renew/release cycle times the cell count, as a fraction of
the distributed arm's wall clock — is asserted under 5%: coordination
is file metadata, resolution is the work.  The pool-vs-distributed
wall-clock ratio is recorded but only asserted loosely (≤3x), because
tiny CI workloads amortise nothing.
"""

import time
from pathlib import Path

from conftest import record

from repro.core import (
    FaultTolerantExecutor,
    ResultStore,
    SerialExecutor,
    SweepManifest,
    claim_cell,
    collect_sweep,
    release_lease,
    renew_lease,
    result_fingerprint,
    run_sharded_experiment,
    run_worker,
    standard_universe_factory,
    standard_workload,
    write_sweep_manifest,
)
from repro.resolver import correct_bind_config

DOMAINS = 40
FILLER = 400
SHARDS = 4
WORKERS = 2
SEED = 2016
LEASE_CYCLES = 100


def _run(executor):
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    start = time.perf_counter()
    result = run_sharded_experiment(
        factory,
        correct_bind_config(),
        names,
        seed=SEED,
        shards=SHARDS,
        executor=executor,
    )
    return result, time.perf_counter() - start


def _run_worker(root):
    """Drain the same cells with one lease worker over a fresh store."""
    store = ResultStore(root)
    start = time.perf_counter()
    write_sweep_manifest(
        store,
        SweepManifest(
            sizes=(DOMAINS,), filler_count=FILLER, seed=SEED, shards=SHARDS
        ),
    )
    run_worker(root, "w0", ttl=5.0)
    outcome = collect_sweep(store, run_missing=False)
    return outcome.result, time.perf_counter() - start


def _lease_cycle_seconds(root):
    """Mean wall clock of one claim → renew → release cycle — the
    per-cell coordination cost (3 fsync'd metadata writes)."""
    lease_dir = Path(root) / "leases"
    lease_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for index in range(LEASE_CYCLES):
        path = lease_dir / f"bench-{index}.lease"
        claimed = claim_cell(path, f"cell-{index}", "bench", ttl=5.0)
        assert claimed is not None
        renew_lease(path, claimed.lease)
        release_lease(path, claimed.lease)
    return (time.perf_counter() - start) / LEASE_CYCLES


def test_distributed_vs_pool(tmp_path):
    # Untimed warm-up: fill the process-global hot-path caches so the
    # arms measure executors, not who ran first.
    _run(SerialExecutor())

    serial, serial_seconds = _run(SerialExecutor())
    reference = result_fingerprint(serial)

    pool, pool_seconds = _run(
        FaultTolerantExecutor(workers=WORKERS, retries=0, keep_going=False)
    )
    assert result_fingerprint(pool) == reference

    distributed, distributed_seconds = _run_worker(tmp_path / "store")
    assert result_fingerprint(distributed) == reference
    assert list((tmp_path / "store").glob("*/*.lease")) == []

    cycle_seconds = _lease_cycle_seconds(tmp_path)
    lease_overhead = (cycle_seconds * SHARDS) / distributed_seconds
    assert lease_overhead < 0.05, (
        f"lease coordination should be <5% of the sweep, measured "
        f"{lease_overhead:.2%} ({cycle_seconds * 1e3:.2f}ms/cycle)"
    )
    ratio = distributed_seconds / pool_seconds
    assert ratio <= 3.0, (
        "the distributed arm should stay in the pool's ballpark "
        f"({ratio:.2f}x)"
    )

    payload = {
        "workload": {
            "domains": DOMAINS,
            "filler": FILLER,
            "shards": SHARDS,
            "workers": WORKERS,
            "seed": SEED,
        },
        "serial_seconds": round(serial_seconds, 4),
        "pool_seconds": round(pool_seconds, 4),
        "distributed_seconds": round(distributed_seconds, 4),
        "pool_speedup": round(serial_seconds / pool_seconds, 2),
        "distributed_speedup": round(serial_seconds / distributed_seconds, 2),
        "distributed_vs_pool": round(ratio, 4),
        "lease_cycle_ms": round(cycle_seconds * 1e3, 4),
        "lease_overhead_fraction": round(lease_overhead, 6),
        "byte_identical": True,
    }
    written = record("distrib", payload)

    print()
    print(f"serial       {serial_seconds:.3f}s")
    print(f"pool         {pool_seconds:.3f}s "
          f"({serial_seconds / pool_seconds:.2f}x of serial)")
    print(f"distributed  {distributed_seconds:.3f}s "
          f"({distributed_seconds / pool_seconds:.2f}x of pool)")
    print(f"lease cycle  {cycle_seconds * 1e3:.2f}ms "
          f"({lease_overhead:.2%} of the distributed sweep)")
    print(f"written to {written.name}")
