"""A walked world holds no reference cycle, so ``LeakageExperiment.run``
runs with the cyclic collector paused.

Three cycles used to tie a world together, and only a full collection
freed a dropped one:

* the network's address table owned each resolver, and the resolver
  (with its engine, validator and look-aside) holds the network; the
  universe now owns its resolvers and the table refers to them weakly;
* a name's ancestors cache held the name itself; it now holds only the
  proper ancestors;
* the engine kept the last failed exchange's exception in a local, and
  the exception's traceback holds that frame; ``send_query`` and
  ``query_cut`` now clear the local on every way out.

These tests state each break, and then what the pause needs: no
collection starts inside a walk, and once the world is dropped a
collection finds nothing unreachable, on every kind of walk the
figures, chaos cells and adversary cells take.

A replay's driver nests two callbacks that reschedule themselves by
name, so each one's closure cell held the function itself, and with it
the universe, the resolver and the stubs; the driver now clears both
names once its event loop ends.  The replay tests state that a dropped
replayed world, too, leaves nothing for a collection to find.
"""

import dataclasses
import gc
import weakref

import pytest

# Imported up front: a first import inside a measured cell may leave
# garbage of its own.
import repro.core.chaos_replay  # noqa: F401
from repro import perf
from repro.core import (
    LeakageExperiment,
    MetricsRegistry,
    ReplayLoad,
    ReplayParams,
    Tracer,
    deploy_poisoner,
    deploy_referral_bomber,
    deploy_sig_bomber,
    deploy_spoofer,
    registry_outage_scenario,
    run_adversary_cell,
    run_adversary_replay,
    run_chaos_cell,
    run_chaos_replay,
    run_population_replay,
)
from repro.dnscore import Name, RCode, RRType
from repro.dnscore import names as names_module
from repro.netsim import NetworkError
from repro.netsim.adversary import all_personas
from repro.resolver import correct_bind_config
from repro.workloads import AlexaWorkload, Universe, UniverseParams, WorkloadParams

from ..resolver.test_resilience import NS1_ADDR, NS2_ADDR, build_world

WWW = Name.from_text("www.example.com")


@pytest.fixture(autouse=True)
def caches_on():
    """Interning and the ancestors cache are what the cycles ran
    through; run with the hot-path caches on whatever the environment
    says."""
    previous = perf.caches_enabled()
    perf.set_caches_enabled(True)
    yield
    perf.set_caches_enabled(previous)


# ----------------------------------------------------------------------
# Each cycle, broken
# ----------------------------------------------------------------------


def test_a_name_dies_with_its_last_reference_after_ancestors():
    labels = ("www", "walk-cycles", "example")
    name = Name(labels)
    chain = list(name.ancestors())
    assert chain[0] is name
    assert [a.to_text() for a in chain] == [
        "www.walk-cycles.example.", "walk-cycles.example.", "example.", ".",
    ]
    # The cached chain gives the same names in the same order.
    assert list(name.ancestors()) == chain
    assert list(Name(()).ancestors()) == [Name(())]
    dead = weakref.ref(name)
    with perf.collector_paused():
        del name, chain
        assert dead() is None
        assert labels not in names_module._INTERNED


def _small_universe(**overrides) -> Universe:
    workload = AlexaWorkload(10, WorkloadParams(seed=5))
    return Universe(
        workload.domains,
        UniverseParams(
            modulus_bits=256,
            registry_filler=tuple(workload.registry_filler(50)),
            **overrides,
        ),
    )


def test_a_resolver_answers_at_its_address_while_anyone_holds_it():
    universe = _small_universe()
    name = universe.domains[0].name
    resolver = universe.make_resolver(correct_bind_config())
    address = resolver.address
    stub = universe.make_stub(resolver)
    network = universe.network
    alive = weakref.ref(resolver)
    with perf.collector_paused():
        del resolver
        # Only the universe holds it.
        assert stub.query(name, RRType.A).rcode is RCode.NOERROR
        assert network.server_at(address) is alive()
        # Only the caller holds it.
        resolver = alive()
        del universe
        assert stub.query(name, RRType.A).rcode is RCode.NOERROR
        assert network.server_at(address) is resolver
        # Nobody does: reference counting frees it, and the address is
        # no longer served.
        del resolver
        assert alive() is None
        with pytest.raises(NetworkError):
            network.server_at(address)


def test_a_send_query_that_retried_leaves_no_cycle():
    network, engine = build_world()
    network.faults.add_outage(NS1_ADDR, end=0.5)  # the first send only
    gc.collect()
    with perf.collector_paused():
        response = engine.send_query(NS1_ADDR, WWW, RRType.A)
    assert (engine.timeouts, engine.retries) == (1, 1)
    assert response.rcode is RCode.NOERROR
    assert gc.collect() == 0


def test_a_query_cut_that_failed_over_leaves_no_cycle():
    network, engine = build_world()
    network.faults.add_outage(NS1_ADDR)
    gc.collect()
    with perf.collector_paused():
        response = engine.query_cut([NS1_ADDR, NS2_ADDR], WWW, RRType.A)
    assert engine.failovers == 1
    assert response.rcode is RCode.NOERROR
    assert gc.collect() == 0


# ----------------------------------------------------------------------
# Every kind of walk: no collection inside, nothing left to collect
# ----------------------------------------------------------------------

_WORKLOAD = AlexaWorkload(50, WorkloadParams(seed=5))
_NAMES = _WORKLOAD.names(50)
_PARAMS = UniverseParams(
    modulus_bits=256,
    registry_filler=tuple(_WORKLOAD.registry_filler(2000)),
)


def _world(**overrides) -> Universe:
    return Universe(_WORKLOAD.domains, dataclasses.replace(_PARAMS, **overrides))


def _walk(trace=False, **overrides):
    def cell():
        universe = _world(**overrides)
        tracer = Tracer(universe.clock) if trace else None
        experiment = LeakageExperiment(
            universe,
            correct_bind_config(),
            tracer=tracer,
            metrics=MetricsRegistry() if trace else None,
        )
        return universe, experiment, experiment.run(_NAMES)

    return cell


def _chaos(rcode):
    def cell():
        universe = _world()
        scenario = registry_outage_scenario(rcode=rcode)
        report = run_chaos_cell(
            universe, correct_bind_config(), _NAMES, scenario=scenario
        )
        return universe, report

    return cell


_PERSONAS = {
    "spoofer": lambda u: deploy_spoofer(u, seed=7),
    "poisoner": lambda u: deploy_poisoner(u, _NAMES[:3], seed=7),
    "referral-bomber": lambda u: deploy_referral_bomber(u, seed=7),
    "sig-bomber": lambda u: deploy_sig_bomber(u, seed=7),
}


def _adversary(kind):
    def cell():
        universe = _world()
        report = run_adversary_cell(
            universe, correct_bind_config(), _NAMES, adversary=_PERSONAS[kind]
        )
        return universe, report

    return cell


WALKS = {
    "plain": _walk(),
    "traced": _walk(trace=True),
    "hashed-registry": _walk(registry_hashed=True),
    "loss-0.05": _walk(loss_rate=0.05),
    "loss-0.2": _walk(loss_rate=0.2),
    "chaos-registry-blackhole": _chaos(None),
    "chaos-registry-servfail": _chaos(RCode.SERVFAIL),
    **{f"adversary-{kind}": _adversary(kind) for kind in _PERSONAS},
}


def test_every_persona_has_a_walk():
    assert set(_PERSONAS) == set(all_personas())


@pytest.fixture
def run_collections(monkeypatch):
    """Collections started inside each ``LeakageExperiment.run`` call,
    by generation."""
    counts = []
    run = LeakageExperiment.run

    def counted(self, names):
        started = [0, 0, 0]

        def watch(phase, info):
            if phase == "start":
                started[info["generation"]] += 1

        gc.callbacks.append(watch)
        try:
            return run(self, names)
        finally:
            # Allocates nothing, so the pass the pause deferred starts
            # after the watch is gone.
            gc.callbacks.remove(watch)
            counts.append(started)

    monkeypatch.setattr(LeakageExperiment, "run", counted)
    return counts


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_a_walk_starts_no_collection_and_leaves_no_garbage(
    walk, run_collections
):
    gc.collect()
    world = WALKS[walk]()
    assert run_collections == [[0, 0, 0]]
    assert gc.isenabled()
    del world
    assert gc.collect() == 0


# ----------------------------------------------------------------------
# Replays: nothing left to collect once the world is dropped
# ----------------------------------------------------------------------


def _population_replay():
    # perfbench's replay-warm shape: 64 users with 20-name browsing
    # profiles over 80 domains and 500 filler.  The universe is built
    # and dropped inside the call.
    return run_population_replay(
        ReplayParams(
            users=64,
            queries=2_000,
            domains=80,
            registry_filler=500,
            domains_per_user=20,
            max_concurrent=64,
            seed=2016,
        )
    )


def _chaos_replay():
    universe = _world()
    replay = run_chaos_replay(
        universe,
        correct_bind_config(),
        _NAMES,
        scenario=registry_outage_scenario(rcode=None),
        scenario_label="registry-blackhole",
        load=ReplayLoad(users=8, queries=400, max_concurrent=8, seed=7),
    )
    return universe, replay


def _adversary_replay():
    universe = _world()
    replay = run_adversary_replay(
        universe,
        correct_bind_config(),
        _NAMES,
        adversary=_PERSONAS["spoofer"],
        adversary_label="spoofer",
        load=ReplayLoad(users=8, queries=200, max_concurrent=8, seed=7),
    )
    return universe, replay


REPLAYS = {
    "population": _population_replay,
    "chaos-registry-blackhole": _chaos_replay,
    "adversary-spoofer": _adversary_replay,
}


@pytest.mark.parametrize("replay", sorted(REPLAYS))
def test_a_dropped_replayed_world_leaves_no_garbage(replay):
    gc.collect()
    world = REPLAYS[replay]()
    del world
    assert gc.collect() == 0
