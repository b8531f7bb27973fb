"""The registry's relative-label index answers exactly as an owner-name
index does.

``ReferenceRegistryZone`` keeps the earlier design: one ``Name`` per
deposit owner, an existence set of owner names and empty non-terminals,
and the NSEC chain as a sorted list of owner names, every DLV record made
at build time.  For random deposit sets (multi-label domains, shared
TLDs) and every registry mode, :class:`DlvRegistryZone` must give the
same outcome, the same RRsets (owners, NSEC/NSEC3 next names, RRSIG
bytes) and the same deposit bookkeeping for every owner, empty
non-terminal, the origin, random in-zone names and names below an owner
-- with name interning on and off, so the index cannot lean on ``Name``
identity.
"""

import bisect
import contextlib
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.crypto import KeyPool, hash_domain_label, make_dlv, nsec3_owner_label
from repro.dnscore import NS, NSEC, NSEC3, Name, RRset, RRType
from repro.servers import DenialMode
from repro.servers.dlv_registry import (
    _NSEC3_ITERATIONS,
    _NSEC3_SALT,
    DlvRegistryZone,
)
from repro.zones.builder import make_soa
from repro.zones.zone import LookupOutcome, LookupResult, sign_rrset

POOL = KeyPool(seed=29, pool_size=8, modulus_bits=256)
ORIGIN = Name.from_text("dlv.isc.org")
TTL = 3600


class ReferenceRegistryZone:
    """The owner-``Name`` registry index, DLV records made eagerly."""

    def __init__(self, keyset, deposits, hashed, denial):
        self.keyset = keyset
        self.hashed = hashed
        self.denial = denial
        self._deposits = {
            domain: make_dlv(domain, keys.ksk.dnskey)
            for domain, keys in deposits.items()
        }
        self._owners = {
            self.registered_name(domain): rdata
            for domain, rdata in self._deposits.items()
        }
        self._names = {ORIGIN}
        for owner in self._owners:
            current = owner
            while current != ORIGIN and current not in self._names:
                self._names.add(current)
                current = current.parent()
        self._sorted_owners = sorted(
            set(self._owners) | {ORIGIN}, key=Name.canonical_key
        )
        self._sorted_keys = [name.canonical_key() for name in self._sorted_owners]
        self._nsec3_labels = sorted(
            nsec3_owner_label(name, _NSEC3_SALT, _NSEC3_ITERATIONS)
            for name in self._sorted_owners
        )
        self._apex = {
            RRType.SOA: RRset(ORIGIN, RRType.SOA, TTL, (make_soa(ORIGIN),)),
            RRType.NS: RRset(
                ORIGIN, RRType.NS, TTL, (NS(ORIGIN.prepend("ns1")),)
            ),
            RRType.DNSKEY: RRset(
                ORIGIN, RRType.DNSKEY, TTL, tuple(keyset.dnskeys())
            ),
        }

    def registered_name(self, domain: Name) -> Name:
        if self.hashed:
            return ORIGIN.prepend(hash_domain_label(domain))
        return domain.concatenate(ORIGIN)

    def has_deposit(self, domain: Name) -> bool:
        return domain in self._deposits

    def has_owner(self, owner: Name) -> bool:
        return owner in self._owners

    def deposited_domains(self):
        return self._deposits.keys()

    def _rrsig(self, rrset: RRset) -> RRset:
        key = self.keyset.ksk if rrset.rtype is RRType.DNSKEY else self.keyset.zsk
        rrsig = sign_rrset(rrset, ORIGIN, key)
        return RRset(rrset.name, RRType.RRSIG, rrset.ttl, (rrsig,))

    def _covering_nsec(self, qname: Name) -> RRset:
        index = bisect.bisect_right(self._sorted_keys, qname.canonical_key()) - 1
        owner = self._sorted_owners[index]
        next_owner = self._sorted_owners[(index + 1) % len(self._sorted_owners)]
        if owner == ORIGIN:
            types = set(self._apex) | {RRType.RRSIG, RRType.NSEC}
        else:
            types = {RRType.DLV, RRType.RRSIG, RRType.NSEC}
        nsec = NSEC(next_name=next_owner, types=frozenset(types))
        return RRset(owner, RRType.NSEC, TTL, (nsec,))

    def _covering_nsec3(self, qname: Name) -> RRset:
        qhash = nsec3_owner_label(qname, _NSEC3_SALT, _NSEC3_ITERATIONS)
        labels = self._nsec3_labels
        index = bisect.bisect_right(labels, qhash) - 1
        rdata = NSEC3(
            hash_algorithm=1,
            flags=0,
            iterations=_NSEC3_ITERATIONS,
            salt=_NSEC3_SALT,
            next_hashed=labels[(index + 1) % len(labels)].encode("ascii"),
            types=frozenset({RRType.DLV}),
        )
        return RRset(ORIGIN.prepend(labels[index]), RRType.NSEC3, TTL, (rdata,))

    def _negative(self, qname: Name, outcome: LookupOutcome) -> LookupResult:
        soa = self._apex[RRType.SOA]
        authority: List[RRset] = [soa, self._rrsig(soa)]
        if outcome is LookupOutcome.NXDOMAIN:
            if self.denial is DenialMode.NSEC:
                nsec = self._covering_nsec(qname)
            else:
                nsec = self._covering_nsec3(qname)
            authority += [nsec, self._rrsig(nsec)]
        return LookupResult(outcome, authority=tuple(authority))

    def lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """``DlvRegistryZone.lookup(..., dnssec_ok=True)``."""
        if qname == ORIGIN:
            rrset = self._apex.get(qtype)
            if rrset is None:
                return self._negative(ORIGIN, LookupOutcome.NODATA)
            return LookupResult(
                LookupOutcome.ANSWER, answer=(rrset, self._rrsig(rrset))
            )
        rdata = self._owners.get(qname)
        if rdata is not None:
            if qtype is RRType.DLV:
                rrset = RRset(qname, RRType.DLV, TTL, (rdata,))
                return LookupResult(
                    LookupOutcome.ANSWER, answer=(rrset, self._rrsig(rrset))
                )
            return self._negative(qname, LookupOutcome.NODATA)
        if qname in self._names:
            return self._negative(qname, LookupOutcome.NODATA)
        return self._negative(qname, LookupOutcome.NXDOMAIN)


#: ``(hashed, denial, empty)`` of every registry mode.
MODES = {
    "plain-nsec": (False, DenialMode.NSEC, False),
    "hashed": (True, DenialMode.NSEC, False),
    "nsec3": (False, DenialMode.NSEC3, False),
    "nsec5": (False, DenialMode.NSEC5, False),
    "empty": (False, DenialMode.NSEC, True),
}

_LABEL = st.text(alphabet="abz09-", min_size=1, max_size=3)
_TLD = st.sampled_from(["com", "net", "a", "zz"])
_DOMAIN = st.builds(
    lambda below, tld: tuple(below) + (tld,),
    st.lists(_LABEL, min_size=1, max_size=3),
    _TLD,
)


def sections(result: LookupResult):
    """Everything a lookup serves: the outcome, then every RRset's
    owner, type, TTL and rdata wire (NSEC/NSEC3 next names, DLV digests
    and RRSIG bytes included)."""
    return (
        result.outcome,
        [
            [
                (rrset.name, rrset.rtype, rrset.ttl,
                 [rdata.to_wire() for rdata in rrset])
                for rrset in section
            ]
            for section in (result.answer, result.authority, result.additional)
        ],
    )


@pytest.mark.parametrize("interning", [True, False], ids=["interned", "uninterned"])
@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=25)
@given(
    domains=st.lists(_DOMAIN, min_size=1, max_size=8, unique=True),
    probes=st.lists(st.lists(_LABEL, min_size=1, max_size=4), max_size=6),
    below=_LABEL,
)
def test_relative_index_answers_like_owner_name_index(
    mode, interning, domains, probes, below
):
    hashed, denial, empty = MODES[mode]
    switch = contextlib.nullcontext() if interning else perf.caches_disabled()
    with switch:
        deposits: Dict[Name, object] = {}
        if not empty:
            deposits = {Name(labels): POOL.keys_for_zone(Name(labels))
                        for labels in domains}
        keyset = POOL.keys_for_zone(ORIGIN)
        # The zone keys its deposits by label tuples, the reference by
        # names.
        zone = DlvRegistryZone(
            origin=ORIGIN, keyset=keyset,
            deposits={domain.labels: keys for domain, keys in deposits.items()},
            hashed=hashed, denial=denial, ttl=TTL,
        )
        reference = ReferenceRegistryZone(keyset, deposits, hashed, denial)

        assert list(zone.deposited_domains()) == list(reference.deposited_domains())
        assert zone.deposit_count() == len(deposits)
        owners = [reference.registered_name(domain) for domain in deposits]
        for domain in deposits:
            assert zone.registered_name(domain) == reference.registered_name(domain)
        for labels in domains:
            # Fresh objects: equal to, but (uninterned) not the same as,
            # the names the zones were built from.
            domain = Name(labels)
            assert zone.has_deposit(domain) == reference.has_deposit(domain)
            # Outside the zone: never an owner.
            assert zone.has_owner(domain) == reference.has_owner(domain)

        empty_non_terminals = [
            ancestor
            for owner in owners
            for ancestor in owner.parent().ancestors()
            if ancestor != ORIGIN and ancestor.is_subdomain_of(ORIGIN)
        ]
        in_zone = [Name(tuple(labels) + ORIGIN.labels) for labels in probes]
        below_owners = [owner.prepend(below) for owner in owners]
        queries = (
            [Name(owner.labels) for owner in owners]
            + empty_non_terminals + [ORIGIN] + in_zone + below_owners
        )
        for qname in queries:
            assert zone.has_owner(qname) == reference.has_owner(qname), qname
            for qtype in (RRType.DLV, RRType.A, RRType.DNSKEY):
                assert sections(zone.lookup(qname, qtype, dnssec_ok=True)) == (
                    sections(reference.lookup(qname, qtype))
                ), (mode, qname, qtype)
            if denial is DenialMode.NSEC:
                # Existing names included: the NSEC at or before them.
                assert zone.covering_nsec(qname) == reference._covering_nsec(qname)
