"""Leakage classification under the paper's threat model (Section 3).

A DLV query delivered to the registry is:

* **Case-1** — the queried owner name has a DLV record deposited: the
  registry is an involved party; the exposure is no worse than today's
  primary resolution; not counted as a privacy leak.
* **Case-2** — no DLV record exists for the name: the registry learns a
  domain the user resolved while providing zero validation utility.
  **This is the leak** the paper quantifies.

:meth:`LeakageClassifier.classify` is the one place that rule lives.
The batch :meth:`~LeakageClassifier.report`, the streaming observer of
:func:`~repro.core.replay.drive_replay_sessions` and
:func:`~repro.core.population.run_population` all call it, so a batch
run and a replay of the same packets count the same queries.

A *domain* counts as leaked when at least one Case-2 DLV query naming it
reached the registry.  Two kinds of Case-2 query name no domain:

* a TLD-level query produced by label stripping (e.g.
  ``com.dlv.isc.org``) asks for a name with no DLV record, so it is
  Case-2; it is flagged ``tld_level`` and counted apart, since it
  reveals far less than an SLD;
* a hashed-registry query (Section 6.2.2) is Case-1 or Case-2 by
  whether its digest owner exists, and maps back to no name.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dnscore import Name, RCode, RRType
from ..netsim import Capture, PacketRecord
from ..servers.dlv_registry import DlvRegistryZone


class LeakageCase(enum.Enum):
    CASE1 = "case-1"   # deposited: involved party
    CASE2 = "case-2"   # not deposited: privacy leak


@dataclasses.dataclass(frozen=True)
class ClassifiedDlvQuery:
    """One DLV query to the registry, classified."""

    record: PacketRecord
    case: LeakageCase
    #: The domain the query exposes (suffix-stripped), when mappable.
    domain: Optional[Name]
    #: True for label-stripped enclosing queries above the SLD.
    tld_level: bool

    @property
    def leaked_domain(self) -> Optional[Name]:
        """The domain this query leaks: its mapped domain when it is a
        Case-2 query below the TLD level, else ``None``."""
        if self.case is LeakageCase.CASE2 and not self.tld_level:
            return self.domain
        return None


@dataclasses.dataclass
class LeakageReport:
    """Aggregated leakage statistics for one experiment run."""

    domains_queried: int
    dlv_queries: int
    case1_queries: int
    case2_queries: int
    leaked_domains: Set[Name]
    served_domains: Set[Name]
    tld_level_queries: int
    noerror_responses: int
    nxdomain_responses: int

    @property
    def leaked_count(self) -> int:
        return len(self.leaked_domains)

    @property
    def leaked_proportion(self) -> float:
        if self.domains_queried == 0:
            return 0.0
        return self.leaked_count / self.domains_queried

    @property
    def utility_fraction(self) -> float:
        """Share of DLV queries that received "No error" — the paper's
        Section 5.3 validation-utility measure."""
        if self.dlv_queries == 0:
            return 0.0
        return self.noerror_responses / self.dlv_queries

    @property
    def case2_fraction(self) -> float:
        if self.dlv_queries == 0:
            return 0.0
        return self.case2_queries / self.dlv_queries


class LeakageClassifier:
    """Turns a capture plus registry state into a leakage report."""

    def __init__(
        self,
        registry: DlvRegistryZone,
        registry_address: str,
    ):
        self._registry = registry
        self._registry_address = registry_address

    def classify(self, record: PacketRecord) -> Optional[ClassifiedDlvQuery]:
        """Classify one captured packet, or ``None`` unless it is a DLV
        query delivered to the registry for a name strictly below the
        registry origin."""
        if (
            # Discovery hops through root/org/isc.org are not the
            # registry's; a dropped packet was lost in flight, so the
            # registry never saw it.
            record.dst != self._registry_address
            or record.dropped
            or not record.is_query
            or record.qtype is not RRType.DLV
        ):
            return None
        qname = record.qname
        origin = self._registry.origin
        if not qname.is_subdomain_of(origin) or qname == origin:
            return None
        case = (
            LeakageCase.CASE1
            if self._registry.has_owner(qname)
            else LeakageCase.CASE2
        )
        domain, tld_level = self._map_domain(qname)
        return ClassifiedDlvQuery(
            record=record, case=case, domain=domain, tld_level=tld_level
        )

    def classify_queries(self, capture: Capture) -> List[ClassifiedDlvQuery]:
        classified = map(self.classify, capture.queries_of_type(RRType.DLV))
        return [item for item in classified if item is not None]

    def _map_domain(self, qname: Name) -> Tuple[Optional[Name], bool]:
        origin = self._registry.origin
        if self._registry.hashed:
            # A hashed query exposes only a digest; there is no name to
            # map back (that is the remedy's point).
            return None, False
        relative = qname.relativize(origin)
        domain = Name(relative)
        return domain, len(relative) == 1

    def report(
        self,
        capture: Capture,
        queried_domains: Sequence[Name],
    ) -> LeakageReport:
        classified = self.classify_queries(capture)
        queried = set(queried_domains)
        leaked: Set[Name] = set()
        served: Set[Name] = set()
        case1 = case2 = tld_level = 0
        for item in classified:
            if item.case is LeakageCase.CASE1:
                case1 += 1
                if item.domain is not None and item.domain in queried:
                    served.add(item.domain)
            else:
                case2 += 1
                if item.tld_level:
                    tld_level += 1
                elif item.leaked_domain in queried:
                    leaked.add(item.leaked_domain)
        noerror, nxdomain = self._response_counts(capture)
        return LeakageReport(
            domains_queried=len(queried),
            dlv_queries=len(classified),
            case1_queries=case1,
            case2_queries=case2,
            leaked_domains=leaked,
            served_domains=served,
            tld_level_queries=tld_level,
            noerror_responses=noerror,
            nxdomain_responses=nxdomain,
        )

    def _response_counts(self, capture: Capture) -> Tuple[int, int]:
        """"No error" vs "No such name" responses from the registry —
        the only two message kinds the paper observed (Section 5.3)."""
        noerror = nxdomain = 0
        for record in capture:
            if record.is_query or record.src != self._registry_address:
                continue
            if record.qtype is not RRType.DLV:
                continue
            if record.message.rcode is RCode.NOERROR and record.message.answer:
                noerror += 1
            elif record.message.rcode is RCode.NXDOMAIN:
                nxdomain += 1
        return noerror, nxdomain
