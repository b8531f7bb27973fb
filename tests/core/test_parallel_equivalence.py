"""Serial ↔ parallel equivalence: the sharded runner's core contract.

For the same ``(names, seed, shard count)``, the merged result must be
byte-identical no matter how the shards execute — in-process, or on a
``fork`` worker pool, in any completion order.  These tests pin that
contract across multiple seeds and shard counts, compare the exported
trace JSONL byte for byte, and extend the check to the chaos and
adversary matrix drivers.
"""

import dataclasses

import pytest

from repro.core import (
    FaultTolerantExecutor,
    LeakageExperiment,
    SerialExecutor,
    deploy_spoofer,
    derive_subseed,
    plan_shards,
    result_fingerprint,
    run_chaos_matrix,
    run_adversary_matrix,
    run_sharded_experiment,
    registry_outage_scenario,
    standard_universe_factory,
    standard_workload,
)
from repro.resolver import ResolverConfig, correct_bind_config

DOMAINS = 18
FILLER = 300

SEEDS = (2016, 2017, 2018)
SHARD_COUNTS = (2, 3)


def _sweep_inputs(seed):
    workload = standard_workload(DOMAINS, seed=seed)
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=seed
    )
    return factory, workload.names(DOMAINS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_serial_and_parallel_merged_results_are_byte_identical(seed, shards):
    factory, names = _sweep_inputs(seed)
    config = correct_bind_config()
    serial = run_sharded_experiment(
        factory, config, names, seed=seed, shards=shards,
        executor=SerialExecutor(), trace=True,
    )
    parallel = run_sharded_experiment(
        factory, config, names, seed=seed, shards=shards,
        executor=FaultTolerantExecutor(workers=2, retries=0, keep_going=False),
        trace=True,
    )
    serial_print = result_fingerprint(serial)
    parallel_print = result_fingerprint(parallel)
    # The full fingerprint covers everything; the named asserts below
    # give readable diffs for the pieces the issue calls out.
    assert serial.summary() == parallel.summary()
    assert serial.status_counts == parallel.status_counts
    assert serial.rcode_counts == parallel.rcode_counts
    assert serial_print["traces_jsonl"] == parallel_print["traces_jsonl"]
    assert serial_print == parallel_print


@pytest.mark.parametrize("seed", SEEDS)
def test_worker_count_does_not_change_the_merge(seed):
    """Same plan, different pool widths: 2 vs 3 workers."""
    factory, names = _sweep_inputs(seed)
    config = correct_bind_config()
    results = [
        run_sharded_experiment(
            factory, config, names, seed=seed, shards=3,
            executor=FaultTolerantExecutor(
                workers=workers, retries=0, keep_going=False
            ),
        )
        for workers in (2, 3)
    ]
    prints = [result_fingerprint(result) for result in results]
    assert prints[0] == prints[1]


def test_single_shard_matches_plain_run_byte_for_byte():
    """shards=1 through the sharded machinery ≡ a plain
    LeakageExperiment.run on the shard's own universe."""
    seed = SEEDS[0]
    factory, names = _sweep_inputs(seed)
    config = correct_bind_config()
    sharded = run_sharded_experiment(
        factory, config, names, seed=seed, shards=1,
        executor=SerialExecutor(),
    )
    plain = LeakageExperiment(
        factory(derive_subseed(seed, 0)), config
    ).run(names)
    assert result_fingerprint(sharded) == result_fingerprint(plain)


def test_shard_plan_is_contiguous_balanced_and_seeded():
    _, names = _sweep_inputs(2016)
    plan = plan_shards(names, 4, seed=99)
    assert [spec.index for spec in plan] == [0, 1, 2, 3]
    # Contiguous cover of the input, first shards one name larger.
    flattened = [name for spec in plan for name in spec.names]
    assert flattened == list(names)
    sizes = [len(spec.names) for spec in plan]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)
    # Sub-seeds are distinct, stable, and platform-independent.
    assert [spec.seed for spec in plan] == [
        derive_subseed(99, index) for index in range(4)
    ]
    assert len({spec.seed for spec in plan}) == 4
    assert plan_shards(names, 4, seed=99) == plan


def test_empty_and_tiny_workloads_shard_cleanly():
    factory, names = _sweep_inputs(2016)
    config = correct_bind_config()
    empty = run_sharded_experiment(
        factory, config, [], seed=2016, shards=3, executor=SerialExecutor()
    )
    assert empty.leakage.domains_queried == 0
    assert empty.capture is None or len(empty.capture) == 0
    # More shards than names: trailing shards are empty but harmless.
    tiny = run_sharded_experiment(
        factory, config, names[:2], seed=2016, shards=4,
        executor=SerialExecutor(),
    )
    assert tiny.leakage.domains_queried == 2
    assert [name.to_text() for name in tiny.names] == [
        name.to_text() for name in names[:2]
    ]


def _chaos_inputs():
    workload = standard_workload(10)
    factory = standard_universe_factory(10, filler_count=150)

    def universe_factory():
        return factory(7)

    names = workload.names(10)
    scenarios = {
        "none": None,
        "registry-down": registry_outage_scenario(),
    }
    configs = {"bind-correct": correct_bind_config()}
    return universe_factory, names, scenarios, configs


def test_chaos_matrix_parallel_equals_serial():
    universe_factory, names, scenarios, configs = _chaos_inputs()
    serial = run_chaos_matrix(universe_factory, names, scenarios, configs)
    parallel = run_chaos_matrix(
        universe_factory, names, scenarios, configs, parallelism=2
    )
    assert [r.describe() for r in serial] == [r.describe() for r in parallel]
    assert [result_fingerprint(r.result) for r in serial] == [
        result_fingerprint(r.result) for r in parallel
    ]


def test_adversary_matrix_parallel_equals_serial():
    workload = standard_workload(8)
    factory = standard_universe_factory(8, filler_count=100)

    def universe_factory():
        return factory(7)

    names = workload.names(8)
    adversaries = {"spoofer": lambda u: deploy_spoofer(u, seed=7)}
    hardened = ResolverConfig()
    configs = {
        "hardened": hardened,
        "unhardened": dataclasses.replace(
            hardened, hardening=hardened.hardening.off()
        ),
    }
    serial = run_adversary_matrix(universe_factory, names, adversaries, configs)
    parallel = run_adversary_matrix(
        universe_factory, names, adversaries, configs, parallelism=2
    )
    # Serial order is baseline-then-adversaries per policy; the
    # parallel reassembly must reproduce it exactly.
    assert [(r.policy, r.adversary) for r in serial] == [
        (r.policy, r.adversary) for r in parallel
    ]
    assert [r.describe() for r in serial] == [r.describe() for r in parallel]
