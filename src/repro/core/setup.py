"""Canonical experiment setup shared by benches, examples, and tests.

Every table/figure reproduction builds its world through these helpers
so that all experiments run against the same calibrated universe
(registry population, deployment rates, latency model).  The defaults
reproduce the paper's headline numbers; see DESIGN.md for the
calibration targets and EXPERIMENTS.md for measured results.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, List, Optional, Sequence

from .. import perf
from ..crypto.memo import BoundedMemo
from ..resolver import ResolverConfig, correct_bind_config
from ..workloads import AlexaWorkload, Universe, UniverseParams, WorkloadParams
from .experiment import LeakageExperiment
from .store import SweepCell, plan_cells

#: Workload populations are pure functions of (count, params) and are
#: rebuilt identically for every cell of a sweep or matrix; sharing the
#: instance is safe because nothing mutates a workload after
#: construction (its RNG is consumed at build time only).
_WORKLOAD_MEMO = BoundedMemo(8)

perf.register_cache(
    "core.workload_memo", _WORKLOAD_MEMO.clear, _WORKLOAD_MEMO.stats
)

#: Background DLV registry population (entries beyond the workload's own
#: deposits).  Calibrated so the leaked-domain curve saturates near the
#: paper's top-1M figure of ~68k domains.
DEFAULT_REGISTRY_FILLER_COUNT = 60_000

#: RSA modulus for experiment runs.  256-bit keys keep big sweeps fast;
#: validation logic is identical at any size (DESIGN.md).
EXPERIMENT_MODULUS_BITS = 256


def standard_workload(
    count: int, seed: int = 2016, **overrides
) -> AlexaWorkload:
    """The calibrated Alexa-like workload."""
    params = WorkloadParams(seed=seed, **overrides)
    if not perf.ENABLED:
        return AlexaWorkload(count, params)
    memo_key = (count, params)
    workload = _WORKLOAD_MEMO.get(memo_key)
    if workload is None:
        workload = AlexaWorkload(count, params)
        _WORKLOAD_MEMO.put(memo_key, workload)
    return workload


def standard_universe(
    workload: AlexaWorkload,
    filler_count: int = DEFAULT_REGISTRY_FILLER_COUNT,
    params: Optional[UniverseParams] = None,
    **overrides,
) -> Universe:
    """The calibrated universe for a workload.

    ``overrides`` are applied on top of the default
    :class:`~repro.workloads.UniverseParams` (e.g.
    ``registry_hashed=True``).
    """
    base = params or UniverseParams(modulus_bits=EXPERIMENT_MODULUS_BITS)
    filler = workload.registry_filler(filler_count)
    merged = dataclasses.replace(base, registry_filler=filler, **overrides)
    return Universe(workload.domains, merged)


def _standard_universe_for_seed(
    seed: int,
    domain_count: int,
    filler_count: int,
    workload_seed: int,
    overrides: dict,
) -> Universe:
    """Module-level builder behind :func:`standard_universe_factory`
    (kept top-level so the factory pickles for spawn-style pools)."""
    workload = standard_workload(domain_count, seed=workload_seed)
    return standard_universe(
        workload, filler_count=filler_count, seed=seed, **overrides
    )


def standard_universe_factory(
    domain_count: int,
    filler_count: int = DEFAULT_REGISTRY_FILLER_COUNT,
    workload_seed: int = 2016,
    **overrides,
) -> Callable[[int], Universe]:
    """A picklable ``seed -> Universe`` factory over the calibrated
    world — the shape :mod:`repro.core.parallel` shards need.

    The *workload* (domain population) is fixed by ``workload_seed``;
    the universe seed argument varies per shard (latency jitter, key
    material), which is how shards become statistically independent
    trials while staying bit-reproducible.
    """
    return functools.partial(
        _standard_universe_for_seed,
        domain_count=domain_count,
        filler_count=filler_count,
        workload_seed=workload_seed,
        overrides=dict(overrides),
    )


def standard_experiment(
    domain_count: int,
    config: Optional[ResolverConfig] = None,
    filler_count: int = DEFAULT_REGISTRY_FILLER_COUNT,
    seed: int = 2016,
    **universe_overrides,
) -> LeakageExperiment:
    """Workload + universe + experiment in one call: one resolver over
    the calibrated world for the top *domain_count* names.  Sharded
    runs plan their cells with :func:`standard_sweep_cells` instead."""
    workload = standard_workload(domain_count, seed=seed)
    universe = standard_universe(
        workload, filler_count=filler_count, **universe_overrides
    )
    return LeakageExperiment(universe, config or correct_bind_config())


def standard_sweep_cells(
    sizes: Sequence[int],
    filler_count: int = DEFAULT_REGISTRY_FILLER_COUNT,
    seed: int = 2016,
    config: Optional[ResolverConfig] = None,
    shards: int = 1,
) -> List[SweepCell]:
    """The cells of the calibrated Figs 8/9 sweep: one stage per size,
    in ascending order, each the shard plan of the top-*size* names in
    a universe built for that size.

    Every sharded sweep, with or without a store, runs these cells on
    :func:`~repro.core.store.run_stored_cells`.
    """
    resolver_config = config or correct_bind_config()
    cells: List[SweepCell] = []
    for stage, size in enumerate(sorted(sizes)):
        cells.extend(
            plan_cells(
                standard_universe_factory(
                    size, filler_count=filler_count, workload_seed=seed
                ),
                resolver_config,
                standard_workload(size, seed=seed).names(size),
                seed=seed,
                shards=shards,
                stage=stage,
            )
        )
    return cells
