"""Tests for the synthetic Alexa-like workload generator."""

from collections import Counter

import pytest

from repro.dnscore import Name
from repro.workloads import AlexaWorkload, WorkloadParams


@pytest.fixture(scope="module")
def workload():
    return AlexaWorkload(2000, WorkloadParams(seed=7))


class TestGeneration:
    def test_exact_count(self, workload):
        assert len(workload) == 2000

    def test_names_unique(self, workload):
        names = workload.names()
        assert len(set(names)) == len(names)

    def test_all_slds(self, workload):
        for spec in workload:
            assert spec.name.label_count == 2

    def test_deterministic_under_seed(self):
        a = AlexaWorkload(50, WorkloadParams(seed=3)).names()
        b = AlexaWorkload(50, WorkloadParams(seed=3)).names()
        assert a == b

    def test_different_seeds_differ(self):
        a = AlexaWorkload(50, WorkloadParams(seed=3)).names()
        b = AlexaWorkload(50, WorkloadParams(seed=4)).names()
        assert a != b

    def test_prefix_stability(self):
        """Top-N of a bigger workload equals the N-sized workload —
        required for incremental sweeps."""
        small = AlexaWorkload(100, WorkloadParams(seed=5)).names()
        large = AlexaWorkload(400, WorkloadParams(seed=5)).names(100)
        assert small == large

    def test_ranks_sequential(self, workload):
        ranks = [spec.rank for spec in workload]
        assert ranks == list(range(1, len(workload) + 1))

    def test_get_by_name(self, workload):
        spec = workload.domains[17]
        assert workload.get(spec.name) is spec
        assert workload.get(Name.from_text("definitely-not-there.com")) is None


class TestDeploymentRates:
    def test_signed_fraction_near_target(self, workload):
        signed = sum(1 for s in workload if s.signed)
        assert 0.01 <= signed / len(workload) <= 0.06

    def test_islands_are_signed_without_ds(self, workload):
        for spec in workload:
            if spec.is_island_of_security():
                assert spec.signed and not spec.ds_in_parent

    def test_ds_implies_signed(self, workload):
        for spec in workload:
            if spec.ds_in_parent:
                assert spec.signed

    def test_dlv_implies_signed(self, workload):
        for spec in workload:
            if spec.dlv_deposited:
                assert spec.signed

    def test_tld_mix_dominated_by_com(self, workload):
        tlds = Counter(spec.name.labels[-1] for spec in workload)
        assert tlds["com"] > tlds["net"] > 0

    def test_out_of_bailiwick_fraction(self, workload):
        oob = sum(1 for s in workload if s.out_of_bailiwick_ns)
        assert 0.05 <= oob / len(workload) <= 0.3


class TestShuffles:
    def test_shuffle_same_population(self, workload):
        shuffled = workload.shuffled_names(100, trial_seed=1)
        assert sorted(shuffled, key=str) == sorted(workload.names(100), key=str)

    def test_shuffle_trials_differ(self, workload):
        assert workload.shuffled_names(100, 1) != workload.shuffled_names(100, 2)

    def test_shuffle_deterministic(self, workload):
        assert workload.shuffled_names(100, 1) == workload.shuffled_names(100, 1)


class TestRegistryFiller:
    def test_count_and_uniqueness(self, workload):
        filler = workload.registry_filler(500)
        assert len(filler) == 500
        assert len(set(filler)) == 500

    def test_disjoint_from_workload(self, workload):
        filler = set(workload.registry_filler(500))
        assert filler.isdisjoint({name.labels for name in workload.names()})

    def test_independent_of_workload_size(self):
        a = AlexaWorkload(100, WorkloadParams(seed=5)).registry_filler(200)
        b = AlexaWorkload(1000, WorkloadParams(seed=5)).registry_filler(200)
        assert a == b

    def test_calibrated_weights_skip_tail_tlds(self, workload):
        weights = workload.calibrated_filler_weights()
        for uncovered in ("ru", "cn", "io", "xyz", "uk"):
            assert uncovered not in weights
        assert weights["com"] > weights["net"]

    def test_filler_respects_custom_weights(self, workload):
        filler = workload.registry_filler(300, tld_weights={"de": 1.0})
        assert all(labels[-1] == "de" for labels in filler)
