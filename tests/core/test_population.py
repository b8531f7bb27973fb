"""Tests for the multi-user population experiment (Section 7.3.1)."""

import dataclasses

import pytest

import repro.core.population as population_module
from repro.core import LeakageClassifier, make_profiles, run_population
from repro.resolver import correct_bind_config
from repro.workloads import AlexaWorkload, Universe, UniverseParams, WorkloadParams


@pytest.fixture(scope="module")
def setting():
    workload = AlexaWorkload(60, WorkloadParams(seed=151))
    profiles = make_profiles(workload, user_count=4, domains_per_user=10)
    params = UniverseParams(
        modulus_bits=256,
        registry_filler=tuple(workload.registry_filler(800)),
    )
    return workload, profiles, params


@pytest.fixture(scope="module")
def results(setting):
    workload, profiles, params = setting
    shared = run_population(
        workload.domains, profiles, correct_bind_config(), True, params
    )
    dedicated = run_population(
        workload.domains, profiles, correct_bind_config(), False, params
    )
    return shared, dedicated


class TestProfiles:
    def test_profile_shape(self, setting):
        workload, profiles, _ = setting
        assert len(profiles) == 4
        for profile in profiles:
            assert len(profile.names) == 10
            assert len(set(profile.names)) == 10

    def test_profiles_overlap_on_popular_head(self, setting):
        workload, profiles, _ = setting
        sets = [set(p.names) for p in profiles]
        union = set().union(*sets)
        total = sum(len(s) for s in sets)
        assert len(union) < total  # popular domains shared across users

    def test_deterministic(self, setting):
        workload, _, _ = setting
        a = make_profiles(workload, 3, 5, seed=1)
        b = make_profiles(workload, 3, 5, seed=1)
        assert [p.names for p in a] == [p.names for p in b]


class TestGranularity:
    def test_shared_resolver_is_one_source(self, results):
        shared, _ = results
        assert shared.observed_sources == 1
        assert shared.attributable_users == 0

    def test_dedicated_resolvers_attribute_users(self, results):
        _, dedicated = results
        assert dedicated.observed_sources == 4
        assert dedicated.attributable_users == 4
        assert all(count > 0 for count in dedicated.per_user_exposure.values())

    def test_aggregate_exposure_similar_either_way(self, results):
        shared, dedicated = results
        assert shared.aggregate_exposed > 0
        assert dedicated.aggregate_exposed >= shared.aggregate_exposed

    def test_shared_cache_suppresses_duplicate_queries(self, results):
        """Overlapping profiles behind one cache produce fewer DLV
        queries than four independent caches."""
        shared, dedicated = results
        assert shared.total_dlv_queries < dedicated.total_dlv_queries


@pytest.fixture(scope="module")
def hashed_results(setting):
    """Both arms under the hashed-DLV remedy (Section 6.2.2), each with
    the batch classifier's DLV count over the same universe's capture."""
    workload, profiles, params = setting
    params = dataclasses.replace(params, registry_hashed=True)
    config = correct_bind_config(hashed_dlv=True)
    names = [name for profile in profiles for name in profile.names]
    arms = []
    for shared in (True, False):
        built = []

        def keep(*args, **kwargs):
            built.append(Universe(*args, **kwargs))
            return built[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(population_module, "Universe", keep)
            result = run_population(
                workload.domains, profiles, config, shared, params
            )
        (universe,) = built
        batch = LeakageClassifier(
            universe.registry_zone, universe.registry_address
        ).report(universe.capture, names)
        arms.append((result, batch))
    return arms


class TestHashedRemedy:
    def test_dedicated_resolvers_are_observed_but_name_nothing(
        self, hashed_results
    ):
        _, (dedicated, _) = hashed_results
        assert dedicated.observed_sources == dedicated.users == 4
        assert dedicated.attributable_users == 4
        assert dedicated.aggregate_exposed == 0

    def test_shared_resolver_is_one_unattributable_source(self, hashed_results):
        (shared, _), _ = hashed_results
        assert shared.observed_sources == 1
        assert shared.attributable_users == 0
        assert shared.aggregate_exposed == 0

    def test_dlv_count_is_the_batch_classifiers(self, hashed_results):
        for result, batch in hashed_results:
            assert batch.case2_queries > 0
            assert result.total_dlv_queries == batch.dlv_queries
