"""The Universe: a complete simulated DNS world on one network.

Given a domain population (:class:`~repro.workloads.alexa.DomainSpec`
list), this builds:

* a signed root zone delegating the TLDs (85 % of them signed) plus the
  ``in-addr.arpa`` reverse tree and the ``org`` branch hosting the DLV
  registry's own delegation chain (root → org → isc.org → dlv.isc.org);
* one authoritative zone per TLD with per-domain delegations (DS for
  secured domains, nothing for unsigned/island domains);
* one leaf zone per domain on a shared-hosting provider server (most
  domains in-bailiwick with glue, a fraction on out-of-bailiwick
  nameservers under ``hostingN.net``);
* the DLV registry itself, populated with the deposits of the domain
  population plus background filler entries (the registry's real-world
  population that the experiment never queries but that shapes the NSEC
  chain and hence aggressive negative caching);
* trust-anchor material and factories for resolvers and stubs.

Remedy deployment (paper Section 6.2) is a build-time switch: TXT
``dlv=0/1`` records in every leaf zone, and/or Z-bit signalling on the
hosting servers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import perf
from ..crypto import KeyPool
from ..dnscore import (
    A,
    AAAA,
    Name,
    NS,
    PTR,
    ROOT,
    RRType,
    TXT,
)
from ..netsim import Capture, LatencyModel, Network, SimClock
from ..resolver import (
    RecursiveResolver,
    ResolverConfig,
    StubClient,
    TrustAnchor,
    TrustAnchorStore,
)
from ..servers import AuthoritativeServer, DenialMode, DLVRegistryServer
from ..servers.dlv_registry import DlvRegistryZone
from ..zones import Zone, ZoneBuilder, make_soa
from ..zones.zone import LookupOutcome, LookupResult, ZoneError
from .alexa import DomainSpec, TldSpec, DEFAULT_TLDS

#: TTLs modelled on operational practice.
TTL_ROOT = 86400
TTL_TLD_DELEGATION = 86400
TTL_LEAF = 3600
TTL_REGISTRY = 3600


@dataclasses.dataclass(frozen=True)
class UniverseParams:
    """Build-time configuration of the simulated world."""

    seed: int = 7
    modulus_bits: int = 512
    key_pool_size: int = 32
    registry_origin: Name = Name.from_text("dlv.isc.org")
    #: Background DLV registry entries beyond the workload's deposits,
    #: as label tuples (:meth:`AlexaWorkload.registry_filler`'s draws).
    registry_filler: Sequence[Tuple[str, ...]] = ()
    #: Privacy-preserving (hashed) registry — paper Section 6.2.2.
    registry_hashed: bool = False
    #: NSEC3 denial at the registry — paper Section 7.3.
    registry_denial: DenialMode = DenialMode.NSEC
    #: ISC phase-out mode: serve the zone but with zero deposits.
    registry_empty: bool = False
    #: Deploy the TXT dlv=0/1 signal in every leaf zone.
    deploy_txt_signal: bool = False
    #: Deploy Z-bit signalling at the hosting servers.
    deploy_zbit_signal: bool = False
    hosting_provider_count: int = 16
    #: Fraction of leaf zones publishing an AAAA at the apex.
    apex_aaaa_fraction: float = 0.6
    latency_min: float = 0.010
    latency_max: float = 0.120
    latency_jitter: float = 0.010
    #: Packet-loss probability per exchange (0 = the deterministic
    #: default; ~0.01-0.03 reproduces live-measurement trial variance).
    loss_rate: float = 0.0


class ReverseZone:
    """A synthetic ``in-addr.arpa`` zone answering every PTR query."""

    def __init__(self, ttl: int = TTL_LEAF):
        self.origin = Name.from_text("in-addr.arpa")
        self.ttl = ttl
        self._soa = None

    def lookup(self, qname: Name, qtype: RRType, dnssec_ok: bool = False) -> LookupResult:
        if not qname.is_subdomain_of(self.origin):
            raise ZoneError(f"{qname.to_text()} outside in-addr.arpa")
        from ..dnscore import RRset, SOA

        if self._soa is None:
            self._soa = RRset(
                self.origin, RRType.SOA, self.ttl, (make_soa(self.origin),)
            )
        if qname == self.origin or qtype is not RRType.PTR:
            return LookupResult(LookupOutcome.NODATA, authority=(self._soa,))
        target = Name(["host-" + "-".join(qname.labels[:4]), "example", "net"])
        from ..dnscore import RRset as RRset_

        rrset = RRset_(qname, RRType.PTR, self.ttl, (PTR(target),))
        return LookupResult(LookupOutcome.ANSWER, answer=(rrset,))


class Universe:
    """The assembled simulation world."""

    def __init__(
        self,
        domains: Sequence[DomainSpec],
        params: Optional[UniverseParams] = None,
        tlds: Sequence[TldSpec] = DEFAULT_TLDS,
        extra_domains: Sequence[DomainSpec] = (),
    ):
        # A world is one long-lived graph: build it with the collector
        # paused.
        with perf.collector_paused():
            self.params = params or UniverseParams()
            self.clock = SimClock()
            self.network = Network(
                clock=self.clock,
                latency=LatencyModel(
                    seed=self.params.seed,
                    min_base=self.params.latency_min,
                    max_base=self.params.latency_max,
                    jitter=self.params.latency_jitter,
                ),
                loss_rate=self.params.loss_rate,
                loss_seed=self.params.seed ^ 0x7055,
            )
            self.keys = KeyPool(
                seed=self.params.seed,
                pool_size=self.params.key_pool_size,
                modulus_bits=self.params.modulus_bits,
            )
            self.domains: List[DomainSpec] = list(domains) + list(extra_domains)
            self._spec_by_name: Dict[Name, DomainSpec] = {
                spec.name: spec for spec in self.domains
            }
            self._tlds = list(tlds)
            self._tld_by_label = {tld.label: tld for tld in self._tlds}
            self._address_counter = 0
            self._apex_address: Dict[Name, str] = {}
            self._stub_count = 0
            #: Every resolver :meth:`make_resolver` built, in order.  The
            #: universe owns them; the network only refers to them.
            self._resolvers: List[RecursiveResolver] = []
            #: Telemetry sinks handed to every resolver built by
            #: :meth:`make_resolver`; ``None`` until
            #: :meth:`attach_telemetry` installs real ones.
            self.tracer = None
            self.metrics = None

            self._build_registry()
            self._build_hosting()
            self._build_tlds()
            self._build_root()

    # ------------------------------------------------------------------
    # Address allocation
    # ------------------------------------------------------------------

    def _next_address(self) -> str:
        self._address_counter += 1
        value = self._address_counter
        return f"10.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def _build_registry(self) -> None:
        params = self.params
        self.registry_origin = params.registry_origin
        self.registry_keys = self.keys.keys_for_zone(self.registry_origin)
        deposits: Dict[Tuple[str, ...], KeyPool] = {}
        if not params.registry_empty:
            # Keyed by labels: each depositor's name, and its key set
            # from the pool, are made the first time the registry makes
            # its DLV record.
            deposits = dict.fromkeys(
                itertools.chain(
                    (
                        spec.name.labels
                        for spec in self.domains
                        if spec.dlv_deposited
                    ),
                    params.registry_filler,
                ),
                self.keys,
            )
        self.registry_address = self._next_address()
        registry_ns_host = self.registry_origin.prepend("ns1")
        self.registry_zone = DlvRegistryZone(
            origin=self.registry_origin,
            keyset=self.registry_keys,
            deposits=deposits,
            ns_host=registry_ns_host,
            ns_address=self.registry_address,
            hashed=params.registry_hashed,
            denial=params.registry_denial,
            ttl=TTL_REGISTRY,
        )
        self.registry_server = DLVRegistryServer(self.registry_zone)
        self.network.register(self.registry_address, self.registry_server)

    # ------------------------------------------------------------------
    # Hosting providers and leaf zones
    # ------------------------------------------------------------------

    def _provider_for(self, name: Name) -> int:
        digest = hashlib.md5(name.to_text().encode("ascii")).digest()
        return digest[1] % self.params.hosting_provider_count

    def _build_hosting(self) -> None:
        params = self.params
        zbit = self._zbit_predicate if params.deploy_zbit_signal else None
        self._providers: List[AuthoritativeServer] = []
        self._provider_addresses: List[str] = []
        for _ in range(params.hosting_provider_count):
            server = AuthoritativeServer(zbit_signal=zbit)
            address = self._next_address()
            self.network.register(address, server)
            self._providers.append(server)
            self._provider_addresses.append(address)
        # hostingN.net zones provide the out-of-bailiwick NS targets.
        self._hosting_ns: List[Tuple[Name, Name]] = []
        for index in range(params.hosting_provider_count):
            origin = Name([f"hosting{index}", "net"])
            address = self._provider_addresses[index]
            zone = ZoneBuilder(origin, default_ttl=TTL_LEAF)
            ns1 = origin.prepend("ns1")
            ns2 = origin.prepend("ns2")
            zone.with_ns([(ns1, address), (ns2, address)])
            built = zone.build()
            self._providers[index].add_zone(built)
            self._hosting_ns.append((ns1, ns2))
        for spec in self.domains:
            self._build_leaf_zone(spec)

    def _build_leaf_zone(self, spec: DomainSpec) -> None:
        params = self.params
        provider = self._provider_for(spec.name)
        address = self._provider_addresses[provider]
        apex_ip = self._next_address()
        self._apex_address[spec.name] = apex_ip
        builder = ZoneBuilder(spec.name, default_ttl=TTL_LEAF)
        if spec.out_of_bailiwick_ns:
            ns1, ns2 = self._hosting_ns[provider]
        else:
            ns1 = spec.name.prepend("ns1")
            ns2 = spec.name.prepend("ns2")
        builder.with_ns([(ns1, address), (ns2, address)])
        builder.with_address(spec.name, ipv4=apex_ip)
        digest = hashlib.md5(spec.name.to_text().encode("ascii")).digest()
        if digest[2] / 255.0 < params.apex_aaaa_fraction:
            builder.with_rrset(
                spec.name, RRType.AAAA, [AAAA(self._synthetic_ipv6(spec.name))]
            )
        if params.deploy_txt_signal:
            signal = "dlv=1" if spec.dlv_deposited else "dlv=0"
            builder.with_rrset(spec.name, RRType.TXT, [TXT((signal,))])
        if spec.signed:
            zone = builder.signed(self.keys.keys_for_zone(spec.name))
        else:
            zone = builder.build()
        self._providers[provider].add_zone(zone)

    @staticmethod
    def _synthetic_ipv6(name: Name) -> str:
        digest = hashlib.md5(name.to_text().encode("ascii")).hexdigest()
        return f"2001:db8:{digest[0:4]}:{digest[4:8]}::1"

    def _zbit_predicate(self, qname: Name) -> bool:
        """Z-bit remedy: signal when the queried name's SLD has a DLV
        deposit (paper Section 6.2.1)."""
        if qname.label_count < 2:
            return False
        sld = Name(qname.labels[-2:])
        return self.registry_zone.has_deposit(sld)

    # ------------------------------------------------------------------
    # TLD and root zones
    # ------------------------------------------------------------------

    def _build_tlds(self) -> None:
        self._tld_zones: Dict[str, Zone] = {}
        self._tld_addresses: Dict[str, str] = {}
        by_tld: Dict[str, List[DomainSpec]] = {}
        for spec in self.domains:
            by_tld.setdefault(spec.name.labels[-1], []).append(spec)
        # Make sure org and net exist (registry chain, hosting zones),
        # and that every workload TLD has a zone even if it was not in
        # the configured TLD list.
        required_labels = ["org", "net"] + sorted(by_tld)
        for required in required_labels:
            if required not in self._tld_by_label:
                self._tld_by_label[required] = TldSpec(required, 0.0)
                self._tlds.append(self._tld_by_label[required])
        for tld_spec in self._tlds:
            label = tld_spec.label
            origin = Name([label])
            address = self._next_address()
            builder = ZoneBuilder(origin, default_ttl=TTL_TLD_DELEGATION)
            builder.with_ns([(origin.prepend("ns1"), address)])
            for spec in by_tld.get(label, ()):
                self._delegate_leaf(builder, spec)
            if label == "net":
                for index in range(self.params.hosting_provider_count):
                    hosting_origin = Name([f"hosting{index}", "net"])
                    ns1, _ = self._hosting_ns[index]
                    builder.delegate(
                        hosting_origin,
                        [(ns1, self._provider_addresses[index])],
                    )
            if label == "org":
                self._delegate_registry_chain(builder)
            if tld_spec.signed:
                zone = builder.signed(self.keys.keys_for_zone(origin))
            else:
                zone = builder.build()
            self._tld_zones[label] = zone
            server = AuthoritativeServer([zone])
            self.network.register(address, server)
            self._tld_addresses[label] = address

    def _delegate_leaf(self, builder: ZoneBuilder, spec: DomainSpec) -> None:
        provider = self._provider_for(spec.name)
        address = self._provider_addresses[provider]
        if spec.out_of_bailiwick_ns:
            ns1, ns2 = self._hosting_ns[provider]
            hosts = [(ns1, address), (ns2, address)]
        else:
            # Glue only under ns1; ns2 is advertised but unglued, which
            # is common practice and keeps the TLD zone compact.
            hosts = [
                (spec.name.prepend("ns1"), address),
                (spec.name.prepend("ns2"), ""),
            ]
        child_keys = (
            self.keys.keys_for_zone(spec.name)
            if spec.signed and spec.ds_in_parent
            else None
        )
        builder.zone.add(
            spec.name, RRType.NS, [NS(host) for host, _ in hosts]
        )
        glue_host, glue_address = hosts[0]
        if glue_host.is_subdomain_of(builder.zone.origin) and glue_address:
            if builder.zone.get(glue_host, RRType.A) is None:
                builder.zone.add(glue_host, RRType.A, [A(glue_address)])
        if child_keys is not None:
            from ..crypto import make_ds

            builder.zone.add(spec.name, RRType.DS, [make_ds(spec.name, child_keys.ksk.dnskey)])

    def _delegate_registry_chain(self, builder: ZoneBuilder) -> None:
        """org delegates isc.org (signed, DS); isc.org delegates
        dlv.isc.org (signed, DS)."""
        isc = Name.from_text("isc.org")
        isc_address = self._next_address()
        isc_keys = self.keys.keys_for_zone(isc)
        builder.delegate(
            isc, [(isc.prepend("ns1"), isc_address)], child_keyset=isc_keys
        )
        isc_builder = ZoneBuilder(isc, default_ttl=TTL_TLD_DELEGATION)
        isc_builder.with_ns([(isc.prepend("ns1"), isc_address)])
        isc_builder.delegate(
            self.registry_origin,
            [(self.registry_origin.prepend("ns1"), self.registry_address)],
            child_keyset=self.registry_keys,
        )
        isc_zone = isc_builder.signed(isc_keys)
        isc_server = AuthoritativeServer([isc_zone])
        self.network.register(isc_address, isc_server)
        self.isc_zone = isc_zone

    def _build_root(self) -> None:
        self.root_address = self._next_address()
        self.root_keys = self.keys.keys_for_zone(ROOT)
        builder = ZoneBuilder(ROOT, default_ttl=TTL_ROOT)
        root_ns_host = Name.from_text("a.root-servers.net")
        builder.zone.add(ROOT, RRType.NS, [NS(root_ns_host)], TTL_ROOT)
        builder.zone.add(root_ns_host, RRType.A, [A(self.root_address)], TTL_ROOT)
        for tld_spec in self._tlds:
            origin = Name([tld_spec.label])
            child_keys = (
                self.keys.keys_for_zone(origin) if tld_spec.signed else None
            )
            builder.delegate(
                origin,
                [(origin.prepend("ns1"), self._tld_addresses[tld_spec.label])],
                child_keyset=child_keys,
            )
        # Reverse tree.
        reverse_address = self._next_address()
        reverse_origin = Name.from_text("in-addr.arpa")
        builder.delegate(
            reverse_origin,
            [(reverse_origin.prepend("ns1"), reverse_address)],
        )
        self.root_zone = builder.signed(self.root_keys)
        self.network.register(self.root_address, AuthoritativeServer([self.root_zone]))
        self.network.register(reverse_address, AuthoritativeServer([ReverseZone()]))

    # ------------------------------------------------------------------
    # Factories and accessors
    # ------------------------------------------------------------------

    @property
    def capture(self) -> Capture:
        return self.network.capture

    def spec_for(self, name: Name) -> Optional[DomainSpec]:
        return self._spec_by_name.get(name)

    def apex_address(self, name: Name) -> Optional[str]:
        return self._apex_address.get(name)

    def tld_addresses(self) -> Dict[str, str]:
        """TLD label → authoritative server address (a copy: callers
        script faults against these without reaching into internals)."""
        return dict(self._tld_addresses)

    def hosting_addresses(self) -> List[str]:
        """Addresses of the shared-hosting providers serving the leaf
        zones (a copy) — the deployment surface for adversaries that
        tamper with terminal answers."""
        return list(self._provider_addresses)

    def has_dlv_deposit(self, name: Name) -> bool:
        return self.registry_zone.has_deposit(name)

    def root_trust_anchor(self) -> TrustAnchor:
        from ..crypto import make_ds

        return TrustAnchor(zone=ROOT, ds=make_ds(ROOT, self.root_keys.ksk.dnskey))

    def registry_trust_anchor(self) -> TrustAnchor:
        return TrustAnchor(
            zone=self.registry_origin, dnskey=self.registry_keys.ksk.dnskey
        )

    def anchors_for(self, config: ResolverConfig) -> TrustAnchorStore:
        """The anchor store a resolver with *config* would end up with."""
        store = TrustAnchorStore()
        if config.root_anchor_available:
            store.add(self.root_trust_anchor())
        if config.lookaside_enabled:
            store.add(self.registry_trust_anchor())
        return store

    def attach_telemetry(self, tracer=None, metrics=None) -> None:
        """Install telemetry sinks on the world and future resolvers.

        The same tracer is shared between the network and every
        resolver built afterwards, so fault events recorded by the
        transport nest under the resolver's exchange spans; the same
        metrics registry likewise aggregates transport, fault, and
        resolver counters in one snapshot.  Pass ``None`` to detach.
        """
        self.tracer = tracer
        self.metrics = metrics
        self.network.tracer = tracer
        self.network.metrics = metrics
        self.network.faults.metrics = metrics

    def make_resolver(
        self, config: ResolverConfig, address: Optional[str] = None
    ) -> RecursiveResolver:
        address = address or f"192.0.2.{len(self._resolvers) + 1}"
        resolver = RecursiveResolver(
            network=self.network,
            address=address,
            config=config,
            root_hints=[self.root_address],
            anchors=self.anchors_for(config),
            registry_origin=self.registry_origin,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        # The resolver holds the network, so the network holds it only
        # weakly: a dropped world is then no reference cycle, and
        # reference counting frees it where it is dropped.
        self._resolvers.append(resolver)
        self.network.register(address, weakref.ref(resolver))
        # Stub-to-resolver hops are on-host in the paper's setup.
        self.network.latency.pin(address, 0.0005)
        return resolver

    def make_stub(self, resolver: RecursiveResolver) -> StubClient:
        self._stub_count += 1
        return StubClient(
            network=self.network,
            address=f"198.18.0.{self._stub_count}",
            resolver_address=resolver.address,
        )
