"""World builds and cell loads run with the cyclic collector paused.

``perf.collector_paused()`` wraps five builds and loads of a
long-lived, acyclic object graph: the workload list, the registry
filler draw, the universe, a stored cell's unpickle and fingerprint
check, and a pooled cell's unpickle (the walk, the sixth paused site,
is tested in ``test_walk_cycles.py``).  These tests state what makes
that safe and what it buys:

* no collection starts inside any of those calls (many do at a build
  or load of this size without the pause);
* the collector is on again afterwards, also when the build raises or
  the cell is corrupt, and stays off when the caller had turned it off;
* a collection right after each call finds nothing unreachable: the
  pause defers no garbage;
* the registry's filler stays label tuples, so a 2,000-entry registry
  adds no 2,000 names to the intern table.
"""

import base64
import contextlib
import gc
import hashlib
import json

import pytest

from repro import perf
from repro.core import (
    ResultStore,
    plan_shards,
    run_shard,
    shard_cell_key,
    standard_universe_factory,
    standard_workload,
)
from repro.core.store import _CommittedCell
from repro.dnscore import names as names_module
from repro.resolver import correct_bind_config
from repro.workloads import AlexaWorkload, Universe, UniverseParams, WorkloadParams

DOMAINS = 8
FILLER = 120
SEED = 2016


class CollectionCounter:
    """Collections started while attached, by generation."""

    def __init__(self):
        self.counts = [0, 0, 0]

    def __call__(self, phase, info):
        if phase == "start":
            self.counts[info["generation"]] += 1

    def __enter__(self):
        # A full collection first, so nothing allocated before the call
        # is due for a pass inside it.
        gc.collect()
        gc.callbacks.append(self)
        return self

    def __exit__(self, exc_type, exc, traceback):
        # Named parameters: packing them would allocate, and the first
        # allocation after a pause starts the pass it deferred.
        gc.callbacks.remove(self)


@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    """A small committed cell: its store root, key and payload bytes."""
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    spec = plan_shards(names, 2, SEED)[0]
    result = run_shard(factory, correct_bind_config(), spec)
    key = shard_cell_key(
        factory, correct_bind_config(), spec, shard_count=2, seed=SEED
    )
    root = tmp_path_factory.mktemp("store")
    payload = ResultStore(root).write_cell(key, result)
    return root, key, payload


def small_world_inputs():
    workload = AlexaWorkload(50, WorkloadParams(seed=5))
    params = UniverseParams(
        modulus_bits=256,
        registry_filler=tuple(workload.registry_filler(2000)),
    )
    return workload, params


def builds_and_loads(committed):
    """``(what, switch, call)`` for every paused site: *call* runs it on
    inputs made up front, inside ``switch()``.  The filler is drawn
    with the caches off, so the memo cannot hand it back."""
    root, key, payload = committed
    drawing = AlexaWorkload(40, WorkloadParams(seed=11))
    workload, params = small_world_inputs()
    plain = contextlib.nullcontext
    return [
        ("workload", plain, lambda: AlexaWorkload(2000, WorkloadParams(seed=3))),
        ("filler", perf.caches_disabled, lambda: drawing.registry_filler(5000)),
        ("universe", plain, lambda: Universe(workload.domains, params)),
        ("store load", plain, lambda: ResultStore(root).load(key)),
        ("committed cell", plain, lambda: _CommittedCell(payload).value()),
    ]


def test_no_collection_starts_inside_a_build_or_load(committed):
    for what, switch, call in builds_and_loads(committed):
        with switch():
            with CollectionCounter() as counter:
                built = call()
        assert built is not None, what
        assert counter.counts == [0, 0, 0], what
        assert gc.isenabled(), what


def test_builds_and_loads_leave_nothing_unreachable(committed):
    for what, switch, call in builds_and_loads(committed):
        with switch():
            gc.collect()
            built = call()
            assert gc.collect() == 0, what
        del built


def test_collector_is_back_on_after_a_build_that_raises():
    workload = AlexaWorkload(10, WorkloadParams(seed=5))
    with pytest.raises(ValueError):
        Universe(
            workload.domains, UniverseParams(modulus_bits=256, key_pool_size=3)
        )
    assert gc.isenabled()


def _corrupt_cells(root, key):
    """Rewrite the committed cell twice: once with a fingerprint digest
    that its payload does not match, once with a payload that is not a
    pickle but matches its SHA-256, so both reach the paused unpickle."""
    path = ResultStore(root).path_for(key.digest())
    envelope = json.loads(path.read_text(encoding="utf-8"))
    wrong_fingerprint = dict(envelope, fingerprint_sha256="0" * 64)
    garbage = b"not a pickle"
    not_a_pickle = dict(
        envelope,
        payload_b64=base64.b64encode(garbage).decode("ascii"),
        payload_sha256=hashlib.sha256(garbage).hexdigest(),
    )
    for corrupt in (wrong_fingerprint, not_a_pickle):
        path.write_text(json.dumps(corrupt), encoding="utf-8")
        yield
    path.write_text(json.dumps(envelope), encoding="utf-8")


def test_collector_is_back_on_after_a_corrupt_cell_load(committed):
    root, key, _ = committed
    for _ in _corrupt_cells(root, key):
        store = ResultStore(root)
        assert store._load_verified(store.path_for(key.digest())) is None
        assert gc.isenabled()


def test_collector_stays_off_when_the_caller_turned_it_off(committed):
    gc.disable()
    try:
        for what, switch, call in builds_and_loads(committed):
            with switch():
                call()
            assert not gc.isenabled(), what
            with perf.collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled(), what
    finally:
        gc.enable()


def test_pauses_nest():
    with perf.collector_paused():
        with perf.collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_filler_universe_adds_no_name_per_deposit():
    perf.set_caches_enabled(True)
    # Cold memos and an empty intern table: the filler is drawn here.
    perf.clear_hotpath_caches()
    before = len(names_module._INTERNED)
    workload, params = small_world_inputs()
    universe = Universe(workload.domains, params)
    assert universe.registry_zone.deposit_count() >= 2000
    assert len(names_module._INTERNED) - before < 2000
