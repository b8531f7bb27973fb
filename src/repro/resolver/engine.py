"""Iterative resolution: referral chasing, caching, and traffic shape.

The engine is the resolver's "query machine": starting from the deepest
cached zone cut it walks referrals down to the authoritative server,
caches positive and negative answers, chases CNAMEs, fetches missing
nameserver addresses (A and AAAA), primes TLD NS sets, and records the
delegation chain the validator will walk.

Traffic-shape notes (these produce the query mix of the paper's
Table 4):

* every hop of an iterative walk carries the original qtype, so one
  uncached A lookup emits ~3 A queries (root, TLD, SLD);
* AAAA queries for the target zone's NS hosts model dual-stack address
  fetching (~2 per fresh delegation, TTL-cached);
* NS queries come from TLD priming ("cut revalidation") plus a stable
  fraction of SLD revalidations;
* DS and DNSKEY queries are issued by the validator, not here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import threading
from typing import Dict, List, Optional, Tuple

from ..dnscore import (
    CNAME,
    Message,
    Name,
    RCode,
    ROOT,
    RRType,
    RRset,
)
from ..netsim import Network, Priority
from ..netsim.network import NetworkError, QueryTimeout
from .cache import RRsetCache
from .hardening import HardeningCounters, HardeningPolicy
from .health import ServerHealth
from .negcache import NegativeCache

#: Engine limits, promoted into :class:`~repro.resolver.config
#: .ResolverConfig` fields (``max_referrals`` / ``max_cname_chain`` /
#: ``max_retries``) so chaos and adversary cells can sweep them; these
#: module values remain the constructor defaults.
_MAX_REFERRALS = 30
_MAX_CNAME_CHAIN = 8
_MAX_RECURSION = 6
#: UDP retransmission attempts before the engine gives up on a server
#: (resolvers typically retry 2-3 times before trying the next one).
_MAX_RETRIES = 3
#: Total sends one cut query may spend across all of a cut's addresses
#: (the per-resolution retry budget of the failover path).
_RETRY_BUDGET = 6
#: Response codes that mark a server lame for the queried zone: the
#: server is up but cannot serve, so failover to a sibling NS is the
#: productive move (and the address enters the SERVFAIL hold-down).
_LAME_RCODES = (RCode.SERVFAIL, RCode.REFUSED, RCode.NOTIMP)

#: Negative-cache TTL used when a negative answer carries no SOA.
_FALLBACK_NEGATIVE_TTL = 900


class ResolutionError(RuntimeError):
    """Raised when iterative resolution cannot make progress."""


class BudgetExceeded(ResolutionError):
    """A per-resolution work budget ran out.

    Distinct from ordinary resolution failure so the failover path knows
    not to keep trying other servers: every further attempt would charge
    the same exhausted budget.
    """


@dataclasses.dataclass
class ResolutionOutcome:
    """What one iterative resolution produced."""

    qname: Name
    qtype: RRType
    rcode: RCode
    #: Final answer RRsets (CNAME chain included), without RRSIGs.
    answer: Tuple[RRset, ...]
    #: RRSIG RRset covering the final answer RRset, if the zone signed it.
    rrsig: Optional[RRset]
    #: Origin of the zone that produced the final (or negative) answer.
    zone: Name
    #: Zone cuts walked or known for the final target, root-first.
    chain: Tuple[Name, ...]
    #: NSEC RRsets (with their RRSIGs) from a negative response.
    nsec: Tuple[Tuple[RRset, Optional[RRset]], ...] = ()
    #: SOA RRset from a negative response.
    soa: Optional[RRset] = None
    #: Z header bit observed on the final response (Z-bit remedy signal).
    z_bit: bool = False
    #: True when served from cache without touching the network.
    from_cache: bool = False
    #: True when the answer is expired data served under RFC 8767
    #: serve-stale because every upstream was unreachable.
    stale: bool = False

    def is_positive(self) -> bool:
        return self.rcode is RCode.NOERROR and bool(self.answer)


@dataclasses.dataclass
class _CutServers:
    addresses: List[str]
    expires_at: float


class IterativeEngine:
    """Performs iterative resolution over the simulated network."""

    def __init__(
        self,
        network: Network,
        address: str,
        cache: RRsetCache,
        negcache: NegativeCache,
        root_hints: List[str],
        dnssec_ok: bool = False,
        tld_priming: bool = True,
        sld_ns_requery_fraction: float = 0.3,
        ns_address_lookups: bool = True,
        qname_minimization: bool = False,
        health: Optional[ServerHealth] = None,
        serve_stale: bool = False,
        retry_budget: int = _RETRY_BUDGET,
        hardening: Optional[HardeningPolicy] = None,
        max_referrals: int = _MAX_REFERRALS,
        max_cname_chain: int = _MAX_CNAME_CHAIN,
        max_retries: int = _MAX_RETRIES,
        tracer=None,
        metrics=None,
    ):
        self._network = network
        self._clock = network.clock
        self.address = address
        self._cache = cache
        self._negcache = negcache
        #: Per-server scoreboard: SRTT, failures, lame hold-downs.
        self.health = health or ServerHealth(network.clock)
        #: RFC 8767: serve expired cache entries when resolution fails.
        self.serve_stale = serve_stale
        self._retry_budget = max(1, retry_budget)
        self._dnssec_ok = dnssec_ok
        self._tld_priming = tld_priming
        self._sld_ns_requery_fraction = sld_ns_requery_fraction
        self._ns_address_lookups = ns_address_lookups
        #: RFC 7816 query-name minimisation: during descent, ask each
        #: ancestor server only for the next label (qtype NS), so the
        #: root and TLDs never see the full query name.  Referenced by
        #: the paper's threat model (Section 3); the DLV-observability
        #: bench shows it does NOT help against the registry.
        self.qname_minimization = qname_minimization
        self._cuts: Dict[Name, _CutServers] = {
            ROOT: _CutServers(list(root_hints), float("inf"))
        }
        self._primed: set = set()
        self._next_id = 1
        #: Byzantine-robustness checks and per-resolution work budgets.
        self.hardening = hardening or HardeningPolicy()
        self.counters = HardeningCounters()
        #: Per-session state (the active work budget and the depth of
        #: open resolution sessions) is **thread-local**: under the
        #: event scheduler each concurrent stub session runs on its own
        #: pooled thread, and its budget must meter *that* client's
        #: resolution, not whichever session happens to be interleaved
        #: with it.  On the serial path there is one thread, so this is
        #: exactly the old single-budget behaviour.
        self._session_state = threading.local()
        self.max_referrals = max_referrals
        self.max_cname_chain = max_cname_chain
        self.max_retries = max_retries
        #: Optional telemetry sinks (duck-typed against
        #: :class:`~repro.core.tracing.Tracer` and
        #: :class:`~repro.core.metrics.MetricsRegistry`; held by
        #: parameter, never imported, to keep this layer leaf-free).
        #: Every emission below is guarded with ``is not None`` so the
        #: untraced path costs one attribute check.
        self._tracer = tracer
        self._metrics = metrics
        self.queries_sent = 0
        self.timeouts = 0
        #: Upstream re-sends actually scheduled after a timeout (the
        #: retry-storm signal the chaos replay windows surface; one less
        #: than the attempt count on a fully failing exchange).
        self.retries = 0
        self.failovers = 0
        self.stale_served = 0
        self.lame_skips = 0

    @property
    def clock(self):
        """The simulated clock the engine (and its caches) run on."""
        return self._clock

    # ------------------------------------------------------------------
    # Work-budget sessions
    # ------------------------------------------------------------------

    def _session(self):
        """This thread's session slot (budget + open-session depth),
        lazily initialised so pooled scheduler threads and the main
        thread each get their own."""
        state = self._session_state
        if not hasattr(state, "budget"):
            state.budget = self.hardening.fresh_budget()
            state.depth = 0
        return state

    @property
    def _budget(self):
        """The calling thread's active work budget."""
        return self._session().budget

    @contextlib.contextmanager
    def resolution_session(self):
        """Scope one stub-facing resolution: every resolve, validator
        chain walk, and DLV search inside the ``with`` block draws on a
        single fresh :class:`~repro.resolver.hardening.WorkBudget`, so
        the hardening caps bound the *total* work one client query can
        trigger.  Sessions nest: inner entries join the outer budget.
        Budgets are per-thread, so concurrent scheduler sessions meter
        their own clients independently.
        """
        state = self._session()
        if state.depth == 0:
            state.budget = self.hardening.fresh_budget()
        state.depth += 1
        try:
            yield state.budget
        finally:
            state.depth -= 1

    def charge_signature(self) -> bool:
        """Spend one signature verification from the active budget;
        ``False`` means the KeyTrap cap is exhausted (the validator
        treats further verification as failed)."""
        if self._budget.charge_signature():
            return True
        self.counters.signature_budget_exhausted += 1
        if self._tracer is not None:
            self._tracer.event("hardening", kind="signature_budget_exhausted")
        if self._metrics is not None:
            self._metrics.inc("hardening.signature_budget_exhausted")
        return False

    # ------------------------------------------------------------------
    # Low-level send
    # ------------------------------------------------------------------

    def send_query(
        self,
        dst: str,
        qname: Name,
        qtype: RRType,
        attempts: Optional[int] = None,
    ) -> Message:
        """Send one query on the wire, retrying on packet loss with
        exponential backoff; public for the validator/DLV machinery.

        The network accounts the timeout itself (the clock advances by
        ``loss_timeout`` per drop); between retries the engine waits an
        additional, growing backoff — the pacing a real resolver applies
        instead of hammering a dead server back-to-back.

        A response that does not echo the outstanding query's message id
        and question section is a spoof: it is dropped (counted in
        ``counters.spoofs_rejected``) and the engine keeps waiting for
        the genuine answer by retrying, exactly like a resolver ignoring
        forged UDP datagrams on its socket.
        """
        if attempts is None:
            attempts = self.max_retries
        tracer = self._tracer
        metrics = self._metrics
        last_error: Optional[Exception] = None
        try:
            for attempt in range(attempts):
                if not self._budget.charge_send():
                    self.counters.send_budget_exhausted += 1
                    if tracer is not None:
                        tracer.event(
                            "hardening", kind="send_budget_exhausted",
                            server=dst, qname=qname.to_text(),
                        )
                    if metrics is not None:
                        metrics.inc("hardening.send_budget_exhausted")
                    raise BudgetExceeded(
                        f"work budget exhausted: upstream-send cap "
                        f"({self.hardening.max_upstream_sends}) reached "
                        f"asking {dst} for {qname.to_text()}/{qtype.name}"
                    )
                message_id = self._next_id
                self._next_id = (self._next_id + 1) & 0xFFFF or 1
                query = Message.make_query(
                    message_id, qname, qtype, recursion_desired=False,
                    dnssec_ok=self._dnssec_ok,
                )
                self.queries_sent += 1
                if metrics is not None:
                    metrics.inc("engine.queries_sent")
                if tracer is not None:
                    tracer.begin(
                        "exchange", server=dst, qname=qname.to_text(),
                        qtype=qtype.name, attempt=attempt + 1,
                    )
                sent_at = self._clock.now
                try:
                    response = self._network.query(self.address, dst, query)
                except QueryTimeout as timeout:
                    self.timeouts += 1
                    if metrics is not None:
                        metrics.inc("engine.timeouts")
                    if tracer is not None:
                        tracer.finish(outcome="timeout", failed=True)
                    self.health.record_failure(dst)
                    last_error = timeout
                    if attempt + 1 < attempts:
                        self.retries += 1
                        if metrics is not None:
                            metrics.inc("engine.retries")
                        # Retry pacing via the scheduler-friendly absolute
                        # deadline; under the event loop this suspends the
                        # session so other clients' traffic interleaves
                        # during the backoff.
                        self._clock.sleep_until(
                            self._clock.now
                            + self.health.backoff_delay(attempt),
                            priority=Priority.TIMEOUT,
                        )
                    continue
                except NetworkError as unreachable:
                    # Nothing answers at this address at all (e.g. poisoned
                    # glue pointing into the void): permanent for this
                    # destination, so retrying would only burn the budget.
                    self.timeouts += 1
                    if metrics is not None:
                        metrics.inc("engine.timeouts")
                    if tracer is not None:
                        tracer.finish(outcome="unreachable", failed=True)
                    self.health.record_failure(dst)
                    last_error = unreachable
                    break
                if not self.hardening.response_matches(query, response):
                    self.counters.spoofs_rejected += 1
                    if tracer is not None:
                        tracer.event(
                            "hardening", kind="spoof_rejected", server=dst
                        )
                        tracer.finish(outcome="spoof_rejected", failed=True)
                    if metrics is not None:
                        metrics.inc("hardening.spoofs_rejected")
                    last_error = ResolutionError(
                        f"spoofed response from {dst} (id/question mismatch)"
                    )
                    continue
                self.health.record_success(dst, self._clock.now - sent_at)
                if tracer is not None:
                    tracer.finish(rcode=response.rcode.name)
                return response
            raise ResolutionError(
                f"query for {qname.to_text()}/{qtype.name} to {dst} failed "
                f"after {attempts} attempts"
            ) from last_error
        finally:
            # A kept exception's traceback holds this frame, and the
            # frame holds the exception: a cycle through the engine and
            # its world that only the cyclic collector frees.
            last_error = None

    def query_cut(
        self, addresses: List[str], qname: Name, qtype: RRType
    ) -> Message:
        """Query a cut's nameservers with failover.

        Addresses are tried in health order (healthy servers keep their
        configured order, recently-failing and lame ones are demoted).
        Each server gets up to ``_MAX_RETRIES`` sends; a timeout
        exhaustion or a lame response (SERVFAIL/REFUSED/NOTIMP) moves on
        to the next address, bounded by the per-resolution retry budget.
        """
        ordered = self.health.order(addresses)
        usable = [a for a in ordered if not self.health.is_lame(a)]
        if not usable:
            self.lame_skips += 1
            raise ResolutionError(
                f"every server for {qname.to_text()}/{qtype.name} is held "
                f"down as lame ({', '.join(ordered)})"
            )
        budget = self._retry_budget
        last_lame: Optional[Message] = None
        last_error: Optional[ResolutionError] = None
        try:
            for index, address in enumerate(usable):
                if budget <= 0:
                    break
                attempts = min(self.max_retries, budget)
                budget -= attempts
                if index > 0:
                    self.failovers += 1
                    if self._metrics is not None:
                        self._metrics.inc("engine.failovers")
                try:
                    response = self.send_query(address, qname, qtype, attempts)
                except BudgetExceeded:
                    raise  # failover cannot restore an exhausted budget
                except ResolutionError as error:
                    last_error = error
                    continue
                if response.rcode in _LAME_RCODES:
                    self.health.mark_lame(address)
                    self.health.record_failure(address)
                    last_lame = response
                    continue
                return response
            if last_lame is not None:
                raise ResolutionError(
                    f"unusable response for {qname.to_text()}/{qtype.name} "
                    f"(rcode={last_lame.rcode.name}) from every reachable "
                    f"server"
                )
            raise ResolutionError(
                f"no server for {qname.to_text()}/{qtype.name} answered "
                f"within the retry budget"
            ) from last_error
        finally:
            last_error = None  # no frame/traceback cycle (send_query)

    # ------------------------------------------------------------------
    # Cut bookkeeping
    # ------------------------------------------------------------------

    def deepest_cut(self, qname: Name) -> Name:
        now = self._clock.now
        for ancestor in qname.ancestors():
            cut = self._cuts.get(ancestor)
            if cut is not None:
                if cut.expires_at > now and cut.addresses:
                    return ancestor
                if ancestor != ROOT:
                    del self._cuts[ancestor]
        return ROOT

    def cut_addresses(self, cut: Name) -> List[str]:
        entry = self._cuts.get(cut)
        if entry is None or (entry.expires_at <= self._clock.now and cut != ROOT):
            raise ResolutionError(f"no fresh servers for cut {cut.to_text()}")
        return entry.addresses

    def known_cuts(self, qname: Name) -> Tuple[Name, ...]:
        """Cuts at-or-above qname, root first (the validator's chain)."""
        cuts = [
            ancestor for ancestor in qname.ancestors() if ancestor in self._cuts
        ]
        return tuple(reversed(cuts))

    def parent_cut(self, zone: Name) -> Optional[Name]:
        if zone == ROOT:
            return None
        current = zone.parent()
        while True:
            if current in self._cuts:
                return current
            if current == ROOT:
                return ROOT
            current = current.parent()

    def _learn_cut(self, child: Name, addresses: List[str], ttl: float) -> None:
        self._cuts[child] = _CutServers(addresses, self._clock.now + ttl)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve(self, qname: Name, qtype: RRType, _depth: int = 0) -> ResolutionOutcome:
        """Resolve (qname, qtype), using caches and the network.

        When a tracer is attached, every call opens a ``resolve`` span
        (nesting for NS-address sub-resolutions) finished with the
        outcome's rcode, zone, and cache provenance.
        """
        tracer = self._tracer
        if tracer is None:
            return self._resolve_impl(qname, qtype, _depth)
        tracer.begin(
            "resolve", qname=qname.to_text(), qtype=qtype.name, depth=_depth
        )
        try:
            outcome = self._resolve_impl(qname, qtype, _depth)
        except ResolutionError as error:
            tracer.finish(error=type(error).__name__, failed=True)
            raise
        attrs = {"rcode": outcome.rcode.name, "zone": outcome.zone.to_text()}
        if outcome.from_cache:
            attrs["cached"] = True
        if outcome.stale:
            attrs["stale"] = True
        tracer.finish(**attrs)
        return outcome

    def _resolve_impl(
        self, qname: Name, qtype: RRType, _depth: int
    ) -> ResolutionOutcome:
        if _depth > _MAX_RECURSION:
            raise ResolutionError(f"recursion too deep resolving {qname.to_text()}")
        state = self._session()
        if _depth == 0 and state.depth == 0:
            # Standalone use (no session open): each top-level resolve
            # is its own budgeted unit of work.
            state.budget = self.hardening.fresh_budget()

        cached = self._lookup_cached(qname, qtype)
        if cached is not None:
            return cached

        answer_rrsets: List[RRset] = []
        current_name = qname
        for _ in range(self.max_cname_chain):
            try:
                outcome = self._resolve_one(current_name, qtype, _depth)
            except ResolutionError:
                outcome = self._stale_outcome(current_name, qtype)
                if outcome is None:
                    raise
            answer_rrsets.extend(outcome.answer)
            cname_target = self._cname_target(outcome, current_name, qtype)
            if cname_target is None:
                return dataclasses.replace(
                    outcome,
                    qname=qname,
                    answer=tuple(answer_rrsets),
                )
            current_name = cname_target
        raise ResolutionError(f"CNAME chain too long from {qname.to_text()}")

    def _cname_target(
        self, outcome: ResolutionOutcome, current: Name, qtype: RRType
    ) -> Optional[Name]:
        if qtype is RRType.CNAME:
            return None
        for rrset in outcome.answer:
            if rrset.rtype is RRType.CNAME and rrset.name == current:
                return rrset.first().target  # type: ignore[attr-defined]
        return None

    def _lookup_cached(self, qname: Name, qtype: RRType) -> Optional[ResolutionOutcome]:
        if self._negcache.is_nxdomain(qname):
            self._note_cache_hit(qname, "negcache", "NXDOMAIN")
            return ResolutionOutcome(
                qname=qname, qtype=qtype, rcode=RCode.NXDOMAIN, answer=(),
                rrsig=None, zone=self._zone_guess(qname),
                chain=self.known_cuts(qname), from_cache=True,
            )
        if self._negcache.is_nodata(qname, qtype):
            self._note_cache_hit(qname, "negcache", "NODATA")
            return ResolutionOutcome(
                qname=qname, qtype=qtype, rcode=RCode.NOERROR, answer=(),
                rrsig=None, zone=self._zone_guess(qname),
                chain=self.known_cuts(qname), from_cache=True,
            )
        entry = self._cache.get(qname, qtype)
        if entry is not None:
            self._note_cache_hit(qname, "rrset", "NOERROR")
            return ResolutionOutcome(
                qname=qname, qtype=qtype, rcode=RCode.NOERROR,
                answer=(entry.rrset,), rrsig=entry.rrsig,
                zone=self._zone_guess(qname), chain=self.known_cuts(qname),
                from_cache=True,
            )
        return None

    def _note_cache_hit(self, qname: Name, source: str, result: str) -> None:
        """Telemetry for an answer served without touching the wire."""
        if self._tracer is not None:
            self._tracer.event(
                "cache_hit", qname=qname.to_text(), source=source,
                result=result,
            )
        if self._metrics is not None:
            self._metrics.inc(f"engine.cache_hits.{source}")

    def _note_scrubbed(self, count: int, bailiwick: Name) -> None:
        """Telemetry for bailiwick-scrubbed records (no-op at zero)."""
        if count <= 0:
            return
        if self._tracer is not None:
            self._tracer.event(
                "hardening", kind="records_scrubbed", count=count,
                bailiwick=bailiwick.to_text(),
            )
        if self._metrics is not None:
            self._metrics.inc("hardening.records_scrubbed", count)

    def _stale_outcome(
        self, qname: Name, qtype: RRType
    ) -> Optional[ResolutionOutcome]:
        """RFC 8767 serve-stale: when iterative resolution failed, fall
        back to an expired cache entry if one is still within the stale
        window.  Stale data is served but never re-signed into the
        caches, and the outcome is flagged so callers can tell."""
        if not self.serve_stale:
            return None
        entry = self._cache.get_stale(qname, qtype)
        if entry is None:
            return None
        self.stale_served += 1
        self._note_cache_hit(qname, "stale", "NOERROR")
        if self._metrics is not None:
            self._metrics.inc("engine.stale_served")
        return ResolutionOutcome(
            qname=qname,
            qtype=qtype,
            rcode=RCode.NOERROR,
            answer=(entry.rrset,),
            rrsig=entry.rrsig,
            zone=self._zone_guess(qname),
            chain=self.known_cuts(qname),
            from_cache=True,
            stale=True,
        )

    def _zone_guess(self, qname: Name) -> Name:
        """Best-effort zone attribution for cached entries: the deepest
        known cut at-or-above the name."""
        for ancestor in qname.ancestors():
            if ancestor in self._cuts:
                return ancestor
        return ROOT

    def _resolve_one(self, qname: Name, qtype: RRType, depth: int) -> ResolutionOutcome:
        cut = self.deepest_cut(qname)
        probe_label_count: Optional[int] = None
        for _ in range(self.max_referrals):
            addresses = self.cut_addresses(cut)
            if self.qname_minimization:
                probe = self._minimized_probe(qname, cut, probe_label_count)
            else:
                probe = qname
            effective_qtype = qtype if probe == qname else RRType.NS
            response = self.query_cut(addresses, probe, effective_qtype)
            classification = self._classify(response, probe, effective_qtype, cut)
            if classification == "answer":
                if probe == qname:
                    return self._accept_answer(response, qname, qtype, cut)
                # Apex NS answer for an intermediate probe: the name
                # exists but is not a cut here; extend the probe.
                self._ingest_simple(response, probe, effective_qtype)
                probe_label_count = probe.label_count + 1
                continue
            if classification == "negative":
                if probe == qname:
                    return self._accept_negative(response, qname, qtype, cut)
                if response.rcode is RCode.NXDOMAIN:
                    # RFC 8020 / 7816: a missing ancestor means the full
                    # name cannot exist either.
                    return self._accept_negative(response, qname, qtype, cut)
                # NODATA for the probe (empty non-terminal): go deeper.
                probe_label_count = probe.label_count + 1
                continue
            if classification == "referral":
                cut = self._follow_referral(response, cut, qname, depth)
                probe_label_count = None
                continue
            raise ResolutionError(
                f"unusable response for {qname.to_text()}/{qtype.name} "
                f"from {addresses[0]} (rcode={response.rcode.name})"
            )
        raise ResolutionError(f"referral loop resolving {qname.to_text()}")

    @staticmethod
    def _minimized_probe(
        qname: Name, cut: Name, probe_label_count: Optional[int]
    ) -> Name:
        """The RFC 7816 probe: one label more than the current cut (or
        than the previous probe), never more than the full name."""
        count = (
            probe_label_count
            if probe_label_count is not None
            else cut.label_count + 1
        )
        count = min(count, qname.label_count)
        return Name(qname.labels[qname.label_count - count :])

    # ------------------------------------------------------------------
    # Response classification
    # ------------------------------------------------------------------

    @staticmethod
    def _classify(response: Message, qname: Name, qtype: RRType, cut: Name) -> str:
        if response.rcode is RCode.NXDOMAIN:
            return "negative"
        if response.rcode is not RCode.NOERROR:
            return "error"
        for rrset in response.answer:
            if rrset.name == qname and rrset.rtype in (qtype, RRType.CNAME):
                return "answer"
        ns_sets = response.find_rrsets(RRType.NS, section="authority")
        for ns in ns_sets:
            if ns.name != cut and qname.is_subdomain_of(ns.name):
                return "referral"
        return "negative"  # NODATA

    def _accept_answer(
        self, response: Message, qname: Name, qtype: RRType, cut: Name
    ) -> ResolutionOutcome:
        answer_rrsets: List[RRset] = []
        rrsig: Optional[RRset] = None
        kept, scrubbed = self.hardening.scrub_rrsets(response.answer, cut)
        self.counters.records_scrubbed += scrubbed
        self._note_scrubbed(scrubbed, cut)
        for rrset in kept:
            if rrset.rtype is RRType.RRSIG:
                continue
            answer_rrsets.append(rrset)
            sig = self._find_rrsig(response.answer, rrset)
            self._cache.put(rrset, rrsig=sig)
            if rrset.name == qname and rrset.rtype in (qtype, RRType.CNAME):
                rrsig = sig
        self._after_authoritative_contact(cut, qname)
        return ResolutionOutcome(
            qname=qname,
            qtype=qtype,
            rcode=RCode.NOERROR,
            answer=tuple(answer_rrsets),
            rrsig=rrsig,
            zone=cut,
            chain=self.known_cuts(qname),
            z_bit=response.flags.z,
        )

    @staticmethod
    def _find_rrsig(section: Tuple[RRset, ...], covered: RRset) -> Optional[RRset]:
        for rrset in section:
            if rrset.rtype is not RRType.RRSIG or rrset.name != covered.name:
                continue
            if rrset.first().type_covered is covered.rtype:  # type: ignore[attr-defined]
                return rrset
        return None

    def _accept_negative(
        self, response: Message, qname: Name, qtype: RRType, cut: Name
    ) -> ResolutionOutcome:
        soa = None
        nsec_pairs: List[Tuple[RRset, Optional[RRset]]] = []
        ttl = _FALLBACK_NEGATIVE_TTL
        kept, scrubbed = self.hardening.scrub_rrsets(response.authority, cut)
        self.counters.records_scrubbed += scrubbed
        self._note_scrubbed(scrubbed, cut)
        for rrset in kept:
            if rrset.rtype is RRType.SOA:
                soa = rrset
                ttl = min(rrset.ttl, rrset.first().minimum)  # type: ignore[attr-defined]
            elif rrset.rtype in (RRType.NSEC, RRType.NSEC3):
                nsec_pairs.append(
                    (rrset, self._find_rrsig(response.authority, rrset))
                )
        if response.rcode is RCode.NXDOMAIN:
            self._negcache.put_nxdomain(qname, ttl)
        else:
            self._negcache.put_nodata(qname, qtype, ttl)
        return ResolutionOutcome(
            qname=qname,
            qtype=qtype,
            rcode=response.rcode,
            answer=(),
            rrsig=None,
            zone=soa.name if soa is not None else cut,
            chain=self.known_cuts(qname),
            nsec=tuple(nsec_pairs),
            soa=soa,
            z_bit=response.flags.z,
        )

    # ------------------------------------------------------------------
    # Referral following
    # ------------------------------------------------------------------

    def _follow_referral(
        self, response: Message, cut: Name, qname: Name, depth: int
    ) -> Name:
        ns_sets = response.find_rrsets(RRType.NS, section="authority")
        referral = None
        for ns in ns_sets:
            if ns.name != cut and (referral is None or ns.name.label_count > referral.name.label_count):
                referral = ns
        if referral is None:
            raise ResolutionError("referral without NS records")
        child = referral.name
        # Direction check: a delegation must descend from the cut toward
        # the query name.  Upward ("here, ask the root again") and
        # sideways referrals are loop/amplification vectors, never
        # legitimate iteration.
        if not self.hardening.referral_allowed(child, cut, qname):
            self.counters.referrals_rejected += 1
            if self._tracer is not None:
                self._tracer.event(
                    "hardening", kind="referral_rejected",
                    cut=cut.to_text(), child=child.to_text(),
                )
            if self._metrics is not None:
                self._metrics.inc("hardening.referrals_rejected")
            raise ResolutionError(
                f"rejected referral from {cut.to_text()} to "
                f"{child.to_text()} (not a descent toward {qname.to_text()})"
            )
        self._cache.put(referral)
        glue_addresses: List[str] = []
        for rrset in response.additional:
            if rrset.rtype not in (RRType.A, RRType.AAAA):
                continue
            # Bailiwick: only glue for hosts inside the referred zone may
            # enter the cache; anything else is attacker-controlled data
            # the parent has no authority over.
            if not self.hardening.glue_in_bailiwick(rrset, child):
                self.counters.glue_rejected += 1
                if self._tracer is not None:
                    self._tracer.event(
                        "hardening", kind="glue_rejected",
                        owner=rrset.name.to_text(), child=child.to_text(),
                    )
                if self._metrics is not None:
                    self._metrics.inc("hardening.glue_rejected")
                continue
            self._cache.put(rrset)
            if rrset.rtype is RRType.A:
                glue_addresses.append(rrset.first().address)  # type: ignore[attr-defined]
        # Cache DS / NSEC material the parent volunteered — but only for
        # the delegated child itself; a DS for any other zone is a
        # chain-of-trust injection.
        for rrset in response.authority:
            if rrset.rtype is RRType.DS:
                if self.hardening.enabled and self.hardening.bailiwick_scrub \
                        and rrset.name != child:
                    self.counters.records_scrubbed += 1
                    self._note_scrubbed(1, child)
                    continue
                self._cache.put(rrset, rrsig=self._find_rrsig(response.authority, rrset))
        if not glue_addresses:
            glue_addresses = self._resolve_ns_addresses(referral, depth)
        if not glue_addresses:
            raise ResolutionError(
                f"no addresses for delegation {child.to_text()}"
            )
        self._learn_cut(child, glue_addresses, float(referral.ttl))
        self._post_referral_maintenance(child, glue_addresses, referral, depth)
        return child

    def _resolve_ns_addresses(self, referral: RRset, depth: int) -> List[str]:
        """Out-of-bailiwick delegation: resolve the NS hosts' addresses.

        Each NS host costs one sub-resolution from the per-resolution
        fanout budget — the NXNSAttack cap: a referral naming dozens of
        dead out-of-zone servers cannot multiply upstream traffic beyond
        ``max_ns_address_resolutions``.
        """
        addresses: List[str] = []
        for rdata in referral.rdatas:
            host = rdata.target  # type: ignore[attr-defined]
            if not self._budget.charge_ns_resolution():
                self.counters.ns_budget_exhausted += 1
                if self._tracer is not None:
                    self._tracer.event(
                        "hardening", kind="ns_budget_exhausted",
                        host=host.to_text(),
                    )
                if self._metrics is not None:
                    self._metrics.inc("hardening.ns_budget_exhausted")
                break
            try:
                outcome = self.resolve(host, RRType.A, _depth=depth + 1)
            except ResolutionError:
                continue
            for rrset in outcome.answer:
                if rrset.rtype is RRType.A and rrset.name == host:
                    addresses.extend(r.address for r in rrset.rdatas)
            if addresses:
                break
        return addresses

    def _post_referral_maintenance(
        self, child: Name, addresses: List[str], referral: RRset, depth: int
    ) -> None:
        """AAAA fetches for NS hosts and TLD priming (see module docs)."""
        if self._ns_address_lookups:
            for rdata in list(referral.rdatas)[:2]:
                host = rdata.target  # type: ignore[attr-defined]
                if self._cache.get(host, RRType.AAAA) is not None:
                    continue
                if self._negcache.known_negative(host, RRType.AAAA):
                    continue
                self._side_query(addresses[0], host, RRType.AAAA)
        if self._tld_priming and child.label_count == 1 and child not in self._primed:
            self._primed.add(child)
            self._side_query(addresses[0], child, RRType.NS)

    def _after_authoritative_contact(self, cut: Name, qname: Name) -> None:
        """Stable-fraction SLD NS revalidation (BIND cut revalidation)."""
        if cut.label_count != 2 or cut in self._primed:
            return
        if self._sld_ns_requery_fraction <= 0:
            return
        digest = hashlib.md5(cut.to_text().encode("ascii")).digest()
        if digest[0] / 255.0 < self._sld_ns_requery_fraction:
            self._primed.add(cut)
            addresses = self.cut_addresses(cut)
            self._side_query(addresses[0], cut, RRType.NS)
        else:
            self._primed.add(cut)

    def _side_query(self, dst: str, qname: Name, qtype: RRType) -> None:
        """A best-effort maintenance query: failures (persistent packet
        loss) must not abort the resolution it piggybacks on."""
        try:
            response = self.send_query(dst, qname, qtype)
        except ResolutionError:
            return
        self._ingest_simple(response, qname, qtype)

    def _ingest_simple(self, response: Message, qname: Name, qtype: RRType) -> None:
        """Cache the positive or negative result of a side query."""
        if response.rcode is RCode.NXDOMAIN:
            ttl = self._negative_ttl(response)
            self._negcache.put_nxdomain(qname, ttl)
            return
        found = False
        # Side queries ask about one specific name; scrub anything the
        # server volunteered for other owners before caching.
        kept, scrubbed = self.hardening.scrub_rrsets(response.answer, qname)
        self.counters.records_scrubbed += scrubbed
        self._note_scrubbed(scrubbed, qname)
        for rrset in kept:
            if rrset.rtype is RRType.RRSIG:
                continue
            self._cache.put(rrset, rrsig=self._find_rrsig(response.answer, rrset))
            if rrset.name == qname and rrset.rtype is qtype:
                found = True
        if not found:
            self._negcache.put_nodata(qname, qtype, self._negative_ttl(response))

    @staticmethod
    def _negative_ttl(response: Message) -> float:
        for rrset in response.authority:
            if rrset.rtype is RRType.SOA:
                return min(rrset.ttl, rrset.first().minimum)  # type: ignore[attr-defined]
        return _FALLBACK_NEGATIVE_TTL
