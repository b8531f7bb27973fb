"""Parallel-scaling bench: serial vs 2 and 4 workers, identical output.

One sharded workload (fixed seed, fixed shard count) runs on the
in-process executor and then on fork pools of 2 and 4 workers (the
fail-fast ``FaultTolerantExecutor``: no retries, no quarantine).  Two
things are measured and recorded in ``BENCH_parallel.json``, with the
host they were measured on:

* **speedup** — serial wall-clock over pooled wall-clock, per width,
  every arm timed after one untimed serial warm-up;
* **merge overhead** — the share of the serial arm spent folding shard
  results rather than resolving (timed by merging the shard results
  again, standalone).

The byte-identity contract is asserted unconditionally: every arm's
merged fingerprint must equal the serial reference, whatever the
machine.  The speedup assertion, by contrast, only fires on hosts with
at least 4 CPUs — on a single-core container a fork pool legitimately
cannot beat the serial arm, and pretending otherwise would make the
bench flaky exactly where CI containers are smallest.
"""

import multiprocessing
import time

from conftest import record

from repro.core import (
    FaultTolerantExecutor,
    SerialExecutor,
    merge_shard_results,
    plan_shards,
    result_fingerprint,
    run_shard,
    run_sharded_experiment,
    standard_universe_factory,
    standard_workload,
)
from repro.resolver import correct_bind_config

DOMAINS = 120
FILLER = 1000
SHARDS = 4
SEED = 2016
WIDTHS = (2, 4)
MIN_SPEEDUP_AT_4 = 1.5
MIN_CPUS_FOR_SPEEDUP_ASSERT = 4


def _workload():
    workload = standard_workload(DOMAINS, seed=SEED)
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    return factory, workload.names(DOMAINS)


def _timed_run(factory, names, executor):
    start = time.perf_counter()
    result = run_sharded_experiment(
        factory,
        correct_bind_config(),
        names,
        seed=SEED,
        shards=SHARDS,
        executor=executor,
    )
    return time.perf_counter() - start, result


def _merge_seconds(factory, names):
    """Standalone cost of the deterministic merge: rerun the fold over
    pre-computed shard results."""
    config = correct_bind_config()
    plan = plan_shards(names, SHARDS, SEED)
    shard_results = [
        (spec.index, run_shard(factory, config, spec)) for spec in plan
    ]
    start = time.perf_counter()
    merge_shard_results(shard_results)
    return time.perf_counter() - start


def test_parallel_scaling():
    factory, names = _workload()
    cpus = multiprocessing.cpu_count()

    # Untimed warm-up: fill the process-global hot-path caches, which
    # forked workers inherit, so every arm runs on warm memos and the
    # speedups compare executors, not cold with warm.
    _timed_run(factory, names, SerialExecutor())

    serial_seconds, serial_result = _timed_run(
        factory, names, SerialExecutor()
    )
    reference = result_fingerprint(serial_result)

    arms = {}
    for width in WIDTHS:
        seconds, result = _timed_run(
            factory,
            names,
            FaultTolerantExecutor(workers=width, retries=0, keep_going=False),
        )
        assert result_fingerprint(result) == reference, (
            f"{width}-worker merge diverged from the serial reference"
        )
        arms[width] = {
            "seconds": round(seconds, 4),
            "speedup": round(serial_seconds / seconds, 4),
            # Record the host honestly next to every speedup claim: a
            # width wider than the machine cannot demonstrate scaling,
            # whatever number it happened to produce.
            "cpus": cpus,
            "speedup_meaningful": width <= cpus,
        }

    merge_seconds = _merge_seconds(factory, names)
    payload = {
        "workload": {
            "domains": DOMAINS,
            "filler": FILLER,
            "shards": SHARDS,
            "seed": SEED,
        },
        "cpus": cpus,
        "serial_seconds": round(serial_seconds, 4),
        "workers": {str(width): arms[width] for width in WIDTHS},
        "merge_seconds": round(merge_seconds, 6),
        "merge_fraction_of_serial": round(merge_seconds / serial_seconds, 6),
        "byte_identical": True,
    }
    written = record("parallel", payload)

    print()
    print(f"cpus: {cpus}")
    print(f"serial        {serial_seconds:.3f}s")
    for width in WIDTHS:
        arm = arms[width]
        note = "" if arm["speedup_meaningful"] else "  [width > cpus: not meaningful]"
        print(
            f"{width} workers     {arm['seconds']:.3f}s "
            f"({arm['speedup']:.2f}x){note}"
        )
    print(f"merge         {merge_seconds * 1000:.1f}ms "
          f"({merge_seconds / serial_seconds:.2%} of serial)")
    print(f"written to {written.name}")

    # Merge must stay a rounding error next to the resolution work.
    assert merge_seconds < 0.25 * serial_seconds

    if cpus >= MIN_CPUS_FOR_SPEEDUP_ASSERT:
        assert arms[4]["speedup"] >= MIN_SPEEDUP_AT_4, (
            f"4-worker speedup {arms[4]['speedup']:.2f}x below "
            f"{MIN_SPEEDUP_AT_4}x on a {cpus}-cpu host"
        )
    else:
        print(
            f"speedup assertion skipped: {cpus} cpu(s) < "
            f"{MIN_CPUS_FOR_SPEEDUP_ASSERT}"
        )
