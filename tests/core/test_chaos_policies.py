"""Acceptance: one scripted registry outage, three resolver behaviours
driven purely by configuration — with distinct Case-2 exposure — and
bit-identical captures for identical seeds and plans."""

import pytest

from repro.core import (
    registry_outage_scenario,
    run_chaos_cell,
    run_chaos_matrix,
)
from repro.dnscore import RCode
from repro.resolver import DlvOutagePolicy, correct_bind_config
from repro.workloads import AlexaWorkload, Universe, UniverseParams, WorkloadParams

DOMAINS = 25
WORKLOAD = AlexaWorkload(DOMAINS, WorkloadParams(seed=81))
NAMES = [spec.name for spec in WORKLOAD.domains]


def make_universe():
    return Universe(
        WORKLOAD.domains,
        UniverseParams(
            modulus_bits=256,
            registry_filler=tuple(WORKLOAD.registry_filler(200)),
        ),
    )


POLICIES = {
    "insecure-fallback": correct_bind_config(),
    "fallback+holddown": correct_bind_config(dlv_fail_holddown=600.0),
    "strict-servfail": correct_bind_config(
        dlv_outage_policy=DlvOutagePolicy.SERVFAIL
    ),
    "disable-after-3": correct_bind_config(
        dlv_outage_policy=DlvOutagePolicy.DISABLE_AFTER_N,
        dlv_disable_threshold=3,
    ),
}


@pytest.fixture(scope="module")
def outage_reports():
    scenarios = {"registry-servfail": registry_outage_scenario(rcode=RCode.SERVFAIL)}
    reports = run_chaos_matrix(make_universe, NAMES, scenarios, POLICIES)
    return {report.policy: report for report in reports}


class TestPolicySpread:
    def test_three_distinct_behaviours_from_config_alone(self, outage_reports):
        fallback = outage_reports["insecure-fallback"]
        strict = outage_reports["strict-servfail"]
        disable = outage_reports["disable-after-3"]
        # 1. Insecure fallback: availability preserved, nothing secure.
        assert fallback.servfail == 0
        assert fallback.result.authenticated_answers == 0
        # 2. Strict: refuses to answer what it cannot conclude.
        assert strict.servfail > 0
        assert strict.servfail > fallback.servfail
        assert strict.noerror < fallback.noerror
        # 3. Auto-disable: keeps answering, turns look-aside off.
        assert disable.servfail == 0
        assert disable.lookaside_disabled
        assert disable.lookaside_skipped > 0

    def test_case2_exposure_differs_across_policies(self, outage_reports):
        fallback = outage_reports["insecure-fallback"]
        holddown = outage_reports["fallback+holddown"]
        disable = outage_reports["disable-after-3"]
        exposures = {
            fallback.case2_queries,
            holddown.case2_queries,
            disable.case2_queries,
        }
        assert len(exposures) == 3
        # Hold-down bounds exposure to one probe per window; the disable
        # threshold bounds it to N probes ever; plain fallback re-leaks
        # on every resolution.
        assert holddown.case2_queries < disable.case2_queries
        assert disable.case2_queries < fallback.case2_queries

    def test_holddown_suppresses_registry_traffic(self, outage_reports):
        holddown = outage_reports["fallback+holddown"]
        fallback = outage_reports["insecure-fallback"]
        assert holddown.lookaside_skipped > 0
        assert (
            holddown.registry_queries_delivered
            < fallback.registry_queries_delivered
        )


@pytest.fixture(scope="module")
def healthy_reports():
    return run_chaos_matrix(make_universe, NAMES, {"none": None}, POLICIES)


class TestFaultFreeEquivalence:
    def test_policies_are_free_when_healthy(self, healthy_reports):
        reports = healthy_reports
        profiles = {
            (r.noerror, r.servfail, r.case2_queries, r.lookaside_skipped)
            for r in reports
        }
        assert len(profiles) == 1
        assert all(not r.lookaside_disabled for r in reports)

    def test_registry_queries_delivered_counts_dlv_queries(
        self, healthy_reports
    ):
        """The resolver's DNSKEY and address lookups at the registry
        host are not DLV queries."""
        for report in healthy_reports:
            assert report.registry_queries_delivered == (
                report.result.leakage.dlv_queries
            )


class TestDeterminism:
    @staticmethod
    def _run_once():
        universe = make_universe()
        report = run_chaos_cell(
            universe,
            POLICIES["disable-after-3"],
            NAMES,
            scenario=registry_outage_scenario(rcode=RCode.SERVFAIL),
            scenario_label="registry-servfail",
            policy_label="disable-after-3",
        )
        return report, universe.capture.export_rows()

    def test_identical_seed_and_plan_identical_capture(self):
        first_report, first_rows = self._run_once()
        second_report, second_rows = self._run_once()
        assert first_rows == second_rows
        assert first_report.case2_queries == second_report.case2_queries
        assert first_report.servfail == second_report.servfail

    def test_black_hole_variant_changes_capture_but_stays_deterministic(self):
        def run(rcode):
            universe = make_universe()
            run_chaos_cell(
                universe,
                POLICIES["insecure-fallback"],
                NAMES,
                scenario=registry_outage_scenario(rcode=rcode),
                scenario_label="x",
                policy_label="y",
            )
            return universe.capture.export_rows()

        assert run(None) == run(None)
        assert run(None) != run(RCode.SERVFAIL)
