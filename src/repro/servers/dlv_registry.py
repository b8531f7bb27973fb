"""The DLV registry: a scalable synthetic DLV zone and its server.

This models registries like ISC's ``dlv.isc.org`` (paper Section 2.3).
Zone owners deposit DLV records (DS-shaped trust anchors, RFC 4431);
resolvers query ``<domain>.<registry-origin>`` with type DLV.

The zone view here is *synthetic*: instead of materialising hundreds of
thousands of RRsets, it keys each deposit by the depositing domain's
labels and indexes it by its owner's labels below the registry origin
-- the domain's own labels, so in plain mode the deposit map is the
owner index, or the single hash label in hashed mode.  One set of those
relative suffixes tells owners and empty non-terminals from
non-existent names, and the NSEC chain keeps the owners in canonical
order, the origin first.  Owner names, covering NSEC (or NSEC3)
denials and RRSIGs are built only for the answers served (the
hashed-denial modes hash every owner name once, at build).  A deposit
arrives as the depositor's key set, or as the key pool that holds it.
The first time an answer needs the deposit's DLV rdata, the zone builds
the depositor's :class:`Name`, asks the pool for the key set, makes the
rdata from its KSK and keeps the rdata in place of the deposit.
Building a registry thus costs a few set, dict and sort operations per
deposit and no :class:`Name`, which keeps the calibrated 60,000-entry
registry and top-100k leakage sweeps cheap while serving byte-accurate
responses.

Operating modes map to the paper's scenarios:

* ``plain``   — normal operation: deposits under their domain names,
  NSEC denial of existence (enables aggressive negative caching).
* ``hashed``  — the paper's privacy-preserving DLV (Section 6.2.2):
  deposits live under ``crypto_hash(domain)`` labels.
* ``nsec3``   — denial via NSEC3 (Section 7.3): the resolver cannot
  reuse denials, so every query reaches the registry.
* ``nsec5``   — NSEC5 (Section 7.3), served with the NSEC3 machinery:
  denials cannot be reused and the zone cannot be walked.
* the ISC phase-out (Section 7.3.2) is simply a registry with zero
  deposits: the zone answers, but every query is a Case-2 leak.
"""

from __future__ import annotations

import bisect
import enum
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..crypto import hash_domain_label, make_dlv, nsec3_owner_label
from ..crypto.keys import KeyPool, ZoneKeySet
from ..dnscore import (
    DLV as DLVRdata,
    DNSKEY,
    NS,
    NSEC,
    NSEC3,
    Name,
    RRType,
    RRset,
    A,
)
from ..zones.builder import make_soa
from ..zones.zone import (
    DEFAULT_TTL,
    LookupOutcome,
    LookupResult,
    ZoneError,
    sign_rrset,
)
from .authoritative import AuthoritativeServer

#: NSEC3 parameters used by the nsec3 denial mode.
_NSEC3_SALT = b"\xd1\x5e"
_NSEC3_ITERATIONS = 5

#: Types present at every deposit owner (the apex has its own set).
_OWNER_TYPES = frozenset({RRType.DLV, RRType.RRSIG, RRType.NSEC})


class DenialMode(enum.Enum):
    """How the registry proves non-existence.

    NSEC5 (paper Section 7.3, Goldberg et al.) prevents zone
    enumeration *without* the offline-keys weakness of NSEC3; from the
    resolver's caching perspective it behaves like NSEC3 — denials
    cannot be reused aggressively — so the simulator models it with the
    same hashed-denial machinery and an is-enumerable flag of its own.
    """

    NSEC = "nsec"
    NSEC3 = "nsec3"
    NSEC5 = "nsec5"

    @property
    def allows_aggressive_caching(self) -> bool:
        return self is DenialMode.NSEC

    @property
    def allows_enumeration(self) -> bool:
        return self is DenialMode.NSEC


#: What a depositor hands the registry: its DLV rdata, its key set, from
#: whose KSK the registry makes the rdata, or the key pool that holds
#: its key set.
Deposit = Union[DLVRdata, ZoneKeySet, KeyPool]


#: A depositing domain's labels, lowercase, most specific first.
Labels = Tuple[str, ...]


class DlvRegistryZone:
    """Synthetic zone view over a set of DLV deposits, keyed by the
    depositing domains' labels."""

    def __init__(
        self,
        origin: Name,
        keyset: ZoneKeySet,
        deposits: Mapping[Labels, Deposit],
        ns_host: Optional[Name] = None,
        ns_address: str = "192.0.2.200",
        hashed: bool = False,
        denial: DenialMode = DenialMode.NSEC,
        ttl: int = DEFAULT_TTL,
    ):
        self.origin = origin
        self.keyset = keyset
        self.hashed = hashed
        self.denial = denial
        self.ttl = ttl
        self._origin_labels = origin.labels
        self._deposits: Dict[Labels, Deposit] = dict(deposits)
        # Registry-relative labels of each deposit's owner: a domain's
        # own labels, so plain mode indexes owners by the deposit map
        # itself; hashed mode maps the hash label to the domain's labels.
        self._owners: Mapping[Labels, object] = self._deposits
        if hashed:
            self._owners = {
                (hash_domain_label(labels),): labels
                for labels in self._deposits
            }
        # Existence set: owners, empty non-terminals and the origin.
        self._names = {()}
        for relative in self._owners:
            while relative not in self._names:
                self._names.add(relative)
                relative = relative[1:]
        # The NSEC chain: each owner's relative labels reversed, sorted.
        # Lowercase ASCII labels compare as their octets do, so this is
        # DNSSEC canonical order, with the origin's () first.
        self._chain: List[Tuple[str, ...]] = sorted(
            relative[::-1] for relative in self._owners.keys() | {()}
        )
        if not denial.allows_aggressive_caching:
            # NSEC3 and NSEC5 both deny existence via hashed owners.
            self._nsec3_labels = sorted(
                nsec3_owner_label(
                    self._owner_name(key), _NSEC3_SALT, _NSEC3_ITERATIONS
                )
                for key in self._chain
            )
        # Apex RRsets.
        ns_host = ns_host or origin.prepend("ns1")
        self._apex: Dict[RRType, RRset] = {
            RRType.SOA: RRset(origin, RRType.SOA, ttl, (make_soa(origin),)),
            RRType.NS: RRset(origin, RRType.NS, ttl, (NS(ns_host),)),
            RRType.DNSKEY: RRset(
                origin, RRType.DNSKEY, ttl, tuple(keyset.dnskeys())
            ),
        }
        self._apex_types = frozenset(self._apex) | {RRType.RRSIG, RRType.NSEC}
        self._glue = (
            RRset(ns_host, RRType.A, ttl, (A(ns_address),))
            if ns_host.is_subdomain_of(origin)
            else None
        )
        self._rrsig_cache: Dict[Tuple[Name, RRType], RRset] = {}

    # ------------------------------------------------------------------
    # Deposit bookkeeping
    # ------------------------------------------------------------------

    def _relative_owner(self, labels: Labels) -> Labels:
        """The labels, below the origin, of the deposit owner for the
        domain with *labels*."""
        if self.hashed:
            return (hash_domain_label(labels),)
        return labels

    def _owner_name(self, key: Tuple[str, ...]) -> Name:
        """The owner name behind a key of the NSEC chain."""
        return Name(key[::-1] + self._origin_labels)

    def registered_name(self, domain: Name) -> Name:
        """The owner name a deposit for *domain* lives under."""
        return Name(self._relative_owner(domain.labels) + self._origin_labels)

    def has_deposit(self, domain: Name) -> bool:
        return domain.labels in self._deposits

    def has_owner(self, owner: Name) -> bool:
        """Is there a DLV RRset at this exact owner name?"""
        if not owner.is_subdomain_of(self.origin):
            return False
        return owner.relativize(self.origin) in self._owners

    def deposit_count(self) -> int:
        return len(self._deposits)

    def deposited_domains(self) -> List[Name]:
        """Every depositing domain, in deposit order, as a name built
        for the call."""
        return [Name(labels) for labels in self._deposits]

    def _dlv(self, relative: Labels) -> DLVRdata:
        """The DLV rdata at the owner with *relative* labels.  A key-set
        or key-pool deposit is turned into its rdata the first time an
        answer needs it, in place; the depositor's name is built then."""
        labels = self._owners[relative] if self.hashed else relative
        deposit = self._deposits[labels]
        if isinstance(deposit, (KeyPool, ZoneKeySet)):
            domain = Name(labels)
            if isinstance(deposit, KeyPool):
                deposit = deposit.keys_for_zone(domain)
            deposit = make_dlv(domain, deposit.ksk.dnskey)
            self._deposits[labels] = deposit
        return deposit

    # ------------------------------------------------------------------
    # Signing helpers (lazy, cached)
    # ------------------------------------------------------------------

    def _rrsig(self, rrset: RRset) -> RRset:
        key = (rrset.name, rrset.rtype)
        cached = self._rrsig_cache.get(key)
        if cached is not None:
            return cached
        signing_key = (
            self.keyset.ksk
            if rrset.rtype is RRType.DNSKEY
            else self.keyset.zsk
        )
        rrsig = sign_rrset(rrset, self.origin, signing_key)
        rrsig_set = RRset(rrset.name, RRType.RRSIG, rrset.ttl, (rrsig,))
        self._rrsig_cache[key] = rrsig_set
        return rrsig_set

    # ------------------------------------------------------------------
    # Denial of existence
    # ------------------------------------------------------------------

    def covering_nsec(self, qname: Name) -> RRset:
        chain = self._chain
        labels = qname.labels
        relative = labels[: len(labels) - len(self._origin_labels)]
        # The origin's key () sorts first, so every in-zone name has a
        # predecessor in the chain.
        index = bisect.bisect_right(chain, relative[::-1]) - 1
        key = chain[index]
        nsec = NSEC(
            next_name=self._owner_name(chain[(index + 1) % len(chain)]),
            types=_OWNER_TYPES if key else self._apex_types,
        )
        return RRset(self._owner_name(key), RRType.NSEC, self.ttl, (nsec,))

    def covering_nsec3(self, qname: Name) -> RRset:
        qhash = nsec3_owner_label(qname, _NSEC3_SALT, _NSEC3_ITERATIONS)
        labels = self._nsec3_labels
        index = bisect.bisect_right(labels, qhash) - 1
        if index < 0:
            index = len(labels) - 1
        owner_label = labels[index]
        next_label = labels[(index + 1) % len(labels)]
        rdata = NSEC3(
            hash_algorithm=1,
            flags=0,
            iterations=_NSEC3_ITERATIONS,
            salt=_NSEC3_SALT,
            next_hashed=next_label.encode("ascii"),
            types=frozenset({RRType.DLV}),
        )
        return RRset(self.origin.prepend(owner_label), RRType.NSEC3, self.ttl, (rdata,))

    # ------------------------------------------------------------------
    # Lookup (ZoneView protocol)
    # ------------------------------------------------------------------

    def lookup(self, qname: Name, qtype: RRType, dnssec_ok: bool = False) -> LookupResult:
        if not qname.is_subdomain_of(self.origin):
            raise ZoneError(
                f"{qname.to_text()} is not in registry zone {self.origin.to_text()}"
            )
        labels = qname.labels
        relative = labels[: len(labels) - len(self._origin_labels)]
        if not relative:
            return self._apex_lookup(qtype, dnssec_ok)
        if relative in self._owners:
            if qtype is RRType.DLV:
                rrset = RRset(qname, RRType.DLV, self.ttl, (self._dlv(relative),))
                answer = [rrset]
                if dnssec_ok:
                    answer.append(self._rrsig(rrset))
                return LookupResult(LookupOutcome.ANSWER, answer=tuple(answer))
            return self._negative(qname, LookupOutcome.NODATA, dnssec_ok)
        if relative in self._names:
            # Empty non-terminal (e.g. com.dlv.isc.org): exists, no data.
            return self._negative(qname, LookupOutcome.NODATA, dnssec_ok)
        return self._negative(qname, LookupOutcome.NXDOMAIN, dnssec_ok)

    def _apex_lookup(self, qtype: RRType, dnssec_ok: bool) -> LookupResult:
        rrset = self._apex.get(qtype)
        if rrset is None:
            return self._negative(self.origin, LookupOutcome.NODATA, dnssec_ok)
        answer = [rrset]
        if dnssec_ok:
            answer.append(self._rrsig(rrset))
        return LookupResult(LookupOutcome.ANSWER, answer=tuple(answer))

    def _negative(
        self, qname: Name, outcome: LookupOutcome, dnssec_ok: bool
    ) -> LookupResult:
        soa = self._apex[RRType.SOA]
        authority: List[RRset] = [soa]
        if dnssec_ok:
            authority.append(self._rrsig(soa))
            if outcome is LookupOutcome.NXDOMAIN:
                if self.denial is DenialMode.NSEC:
                    nsec = self.covering_nsec(qname)
                else:
                    nsec = self.covering_nsec3(qname)
                authority.append(nsec)
                authority.append(self._rrsig(nsec))
        return LookupResult(outcome, authority=tuple(authority))


class DLVRegistryServer(AuthoritativeServer):
    """An authoritative server dedicated to one DLV registry zone."""

    def __init__(self, zone: DlvRegistryZone):
        super().__init__(zones=[zone])
        self.registry = zone

    @classmethod
    def build(
        cls,
        origin: Name,
        keyset: ZoneKeySet,
        deposits: Mapping[Name, Union[ZoneKeySet, KeyPool]],
        hashed: bool = False,
        denial: DenialMode = DenialMode.NSEC,
        extra_owners: Optional[Mapping[Name, DLVRdata]] = None,
        ttl: int = DEFAULT_TTL,
    ) -> "DLVRegistryServer":
        """Build a registry from depositing zones' key sets.

        ``deposits`` maps each depositing domain to the key set whose KSK
        the DLV record must authenticate, or to the key pool that holds
        it; the zone asks the pool for the key set, and makes the
        record, the first time an answer needs it.  ``extra_owners``
        lets callers add background entries (registered domains that
        the experiment never queries but that shape the NSEC chain,
        mirroring the real registry's population).  Both are keyed by
        name here; the zone keys them by the names' labels.
        """
        merged: Dict[Labels, Deposit] = {
            domain.labels: deposit for domain, deposit in deposits.items()
        }
        if extra_owners:
            merged.update(
                (domain.labels, rdata) for domain, rdata in extra_owners.items()
            )
        zone = DlvRegistryZone(
            origin=origin,
            keyset=keyset,
            deposits=merged,
            hashed=hashed,
            denial=denial,
            ttl=ttl,
        )
        return cls(zone)
