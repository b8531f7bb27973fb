"""Tests for the dictionary attack on hashed DLV."""

import pytest

from repro.core import (
    DictionaryAttack,
    LeakageExperiment,
    coverage_curve,
    registry_outage_scenario,
)
from repro.dnscore import Name
from repro.resolver import correct_bind_config
from repro.core import resolver_config_for, Remedy, universe_params_for
from repro.workloads import AlexaWorkload, Universe, UniverseParams, WorkloadParams


def run_hashed(scenario=None):
    workload = AlexaWorkload(40, WorkloadParams(seed=44))
    params = UniverseParams(
        modulus_bits=256,
        registry_hashed=True,
        registry_filler=tuple(workload.registry_filler(300)),
    )
    universe = Universe(workload.domains, params)
    if scenario is not None:
        scenario(universe)
    config = resolver_config_for(Remedy.HASHED, correct_bind_config())
    experiment = LeakageExperiment(universe, config, ptr_fraction=0.0)
    result = experiment.run(workload.names(40))
    attack = DictionaryAttack(universe.registry_origin, universe.registry_address)
    return workload, universe, result, attack


@pytest.fixture(scope="module")
def hashed_run():
    return run_hashed()


class TestObservation:
    def test_digests_observed(self, hashed_run):
        workload, universe, result, attack = hashed_run
        digests = attack.observed_digest_labels(result.capture)
        assert digests
        for label in digests:
            assert all(c in "0123456789abcdef" for c in label)

    def test_digests_unique(self, hashed_run):
        _, _, result, attack = hashed_run
        digests = attack.observed_digest_labels(result.capture)
        assert len(digests) == len(set(digests))

    def test_blackholed_registry_observes_no_digests(self):
        """Queries lost in flight never reach the registry operator, so
        there is nothing to attack."""
        _, _, result, attack = run_hashed(registry_outage_scenario(rcode=None))
        assert result.leakage.dlv_queries == 0
        assert attack.observed_digest_labels(result.capture) == []


class TestAttack:
    def test_full_dictionary_recovers_queried_domains(self, hashed_run):
        workload, _, result, attack = hashed_run
        outcome = attack.attack(result.capture, workload.names(40))
        assert outcome.recovery_rate == pytest.approx(1.0)
        recovered_names = set(outcome.recovered.values())
        assert recovered_names <= set(workload.names(40))

    def test_empty_dictionary_recovers_nothing(self, hashed_run):
        _, _, result, attack = hashed_run
        outcome = attack.attack(result.capture, [])
        assert outcome.recovered_count == 0

    def test_wrong_dictionary_recovers_nothing(self, hashed_run):
        _, _, result, attack = hashed_run
        decoys = [Name.from_text(f"decoy{i}.com") for i in range(50)]
        outcome = attack.attack(result.capture, decoys)
        assert outcome.recovered_count == 0
        assert outcome.hash_evaluations == 50

    def test_budget_limits_evaluations(self, hashed_run):
        workload, _, result, attack = hashed_run
        outcome = attack.attack(
            result.capture, workload.names(40), max_hash_evaluations=5
        )
        assert outcome.hash_evaluations <= 5
        assert outcome.recovered_count <= 5

    def test_partial_dictionary_partial_recovery(self, hashed_run):
        workload, _, result, attack = hashed_run
        half = workload.names(20)
        outcome = attack.attack(result.capture, half)
        assert 0 < outcome.recovered_count <= len(half)
        assert outcome.recovery_rate < 1.0


class TestCoverageCurve:
    def test_monotone_in_dictionary_size(self, hashed_run):
        workload, _, result, attack = hashed_run
        rows = coverage_curve(
            attack, result.capture, workload.names(40), checkpoints=(5, 20, 40)
        )
        rates = [row["recovery_rate"] for row in rows]
        assert rates == sorted(rates)
        assert rows[-1]["recovery_rate"] == pytest.approx(1.0)
