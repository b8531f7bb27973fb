"""The registry makes a DLV record only when an answer needs it.

A calibrated universe deposits tens of thousands of filler domains that
no query ever reaches; digesting each depositor's KSK at build time
would spend most of set-up on records nobody reads.  These tests count
``make_dlv`` calls wherever the universe or the registry could make
them.
"""

import pytest

import repro.servers.dlv_registry as dlv_registry
import repro.workloads.universe as universe_module
from repro.crypto import make_dlv
from repro.dnscore import Name, RRType
from repro.workloads import AlexaWorkload, Universe, UniverseParams, WorkloadParams
from repro.zones.zone import LookupOutcome


@pytest.fixture
def dlv_calls(monkeypatch):
    """Every ``make_dlv`` call the universe or registry modules make."""
    calls = []

    def counting(owner, dnskey, *args, **kwargs):
        calls.append(owner)
        return make_dlv(owner, dnskey, *args, **kwargs)

    for module in (universe_module, dlv_registry):
        if hasattr(module, "make_dlv"):
            monkeypatch.setattr(module, "make_dlv", counting)
    return calls


@pytest.mark.parametrize("hashed", [False, True], ids=["plain", "hashed"])
def test_dlv_records_are_made_on_first_answer(dlv_calls, hashed):
    workload = AlexaWorkload(20, WorkloadParams(seed=5))
    filler = tuple(workload.registry_filler(2000))
    universe = Universe(
        workload.domains,
        UniverseParams(
            modulus_bits=256, registry_filler=filler, registry_hashed=hashed
        ),
    )
    registry = universe.registry_zone
    assert registry.deposit_count() >= 2000
    assert dlv_calls == []

    labels = filler[1234]
    domain = Name(labels)
    owner = registry.registered_name(domain)
    first = registry.lookup(owner, RRType.DLV, dnssec_ok=True)
    assert first.outcome is LookupOutcome.ANSWER
    assert [name.labels for name in dlv_calls] == [labels]

    again = registry.lookup(owner, RRType.DLV, dnssec_ok=True)
    assert [name.labels for name in dlv_calls] == [labels]
    assert again.answer[0] == first.answer[0]
    assert first.answer[0].first() == make_dlv(
        domain, universe.keys.keys_for_zone(domain).ksk.dnskey
    )
