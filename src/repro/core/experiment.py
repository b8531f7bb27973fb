"""The measurement harness: drive a workload, capture, classify.

This is the reproduction of the paper's experimental procedure
(Section 4.1): configure a resolver, query the sample domains from a
stub, capture all packets, and analyse (1) whether DNSSEC succeeded,
(2) which queries went to the DLV registry, and (3) whether the
registry provided validation utility.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .. import perf
from ..dnscore import Name, RCode, RRType
from ..netsim import AdversaryPersona
from ..resolver import ResolverConfig
from ..workloads import Universe
from .attacks import schedule_outage
from .leakage import LeakageClassifier, LeakageReport
from .metrics import MetricsRegistry
from .observability import (
    HardeningSnapshot,
    hardening_snapshot,
    poisoned_cache_entries,
)
from .overhead import OverheadMetrics
from .tracing import Span, Tracer


@dataclasses.dataclass
class ExperimentResult:
    """Everything one run produced."""

    names: List[Name]
    leakage: LeakageReport
    overhead: OverheadMetrics
    #: Validation status distribution over stub queries.
    status_counts: Dict[str, int]
    #: rcode distribution of stub answers.
    rcode_counts: Dict[str, int]
    #: Number of answers carrying AD (validated secure).
    authenticated_answers: int
    #: Read-only view over this run's captured packets (``None`` only
    #: for synthetic results, e.g. the merge identity in
    #: :func:`~repro.core.parallel.empty_result`).
    capture: Optional["_CaptureSlice"] = dataclasses.field(
        default=None, repr=False
    )
    #: Root spans drained from the experiment's tracer, one per stub
    #: query (empty when the run was untraced).
    traces: Sequence[Span] = dataclasses.field(default=(), repr=False)
    #: :meth:`~repro.core.metrics.MetricsRegistry.snapshot` of the
    #: run's metrics registry (``None`` when no registry was attached).
    metrics: Optional[Dict[str, Dict]] = dataclasses.field(
        default=None, repr=False
    )

    def summary(self) -> str:
        leak = self.leakage
        return (
            f"{leak.domains_queried} domains; {leak.dlv_queries} DLV queries "
            f"({leak.case2_queries} case-2); leaked domains: "
            f"{leak.leaked_count} ({leak.leaked_proportion:.1%}); "
            f"utility: {leak.utility_fraction:.2%}; "
            f"time {self.overhead.response_time:.2f}s, "
            f"{self.overhead.traffic_mb:.2f} MB, "
            f"{self.overhead.queries_issued} queries"
        )


class LeakageExperiment:
    """Runs one workload against one resolver configuration."""

    def __init__(
        self,
        universe: Universe,
        config: ResolverConfig,
        ptr_fraction: float = 0.01,
        dnssec_ok_stub: bool = True,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.universe = universe
        self.config = config
        if tracer is not None or metrics is not None:
            universe.attach_telemetry(tracer=tracer, metrics=metrics)
        #: Telemetry sinks this run drains/snapshots — whatever is
        #: attached to the universe, whether passed here or installed
        #: earlier via :meth:`Universe.attach_telemetry`.
        self.tracer = universe.tracer
        self.metrics = universe.metrics
        self.resolver = universe.make_resolver(config)
        self.stub = universe.make_stub(self.resolver)
        self.classifier = LeakageClassifier(
            registry=universe.registry_zone,
            registry_address=universe.registry_address,
        )
        self._ptr_fraction = ptr_fraction
        self._dnssec_ok_stub = dnssec_ok_stub

    def run(self, names: Sequence[Name]) -> ExperimentResult:
        """Query every name (type A, plus a deterministic PTR fraction)
        on this experiment's universe, then classify the capture.

        One resolver walks the names in order.  A sharded run, where
        every shard is a fresh universe from a derived sub-seed, is a
        sweep of independent cells:
        :func:`~repro.core.store.run_stored_cells` runs those, and
        :func:`~repro.core.parallel.run_sharded_experiment` is their
        executor-explicit reference.

        The walk runs with the cyclic collector paused: it makes no
        cyclic garbage, and a world dropped afterwards is freed by
        reference counting where it is dropped.
        """
        with perf.collector_paused():
            capture = self.universe.capture
            start_index = len(capture)
            start_time = self.universe.clock.now
            rcode_counts: Dict[str, int] = {}
            authenticated = 0
            for name in names:
                response = self.stub.query(
                    name, RRType.A, dnssec_ok=self._dnssec_ok_stub
                )
                rcode_counts[response.rcode.name] = (
                    rcode_counts.get(response.rcode.name, 0) + 1
                )
                if response.flags.ad:
                    authenticated += 1
                if self._wants_ptr(name):
                    reverse = self._reverse_name(name)
                    if reverse is not None:
                        self.stub.query(reverse, RRType.PTR, dnssec_ok=False)
            # Slice the capture to this run's packets.
            run_records = list(capture)[start_index:]
            run_capture = _CaptureSlice(run_records)
            leakage = self.classifier.report(run_capture, list(names))
            overhead = OverheadMetrics.from_capture(
                run_capture,
                response_time=self.universe.clock.now - start_time,
            )
            status_counts = self._status_histogram(names)
            traces = (
                tuple(self.tracer.drain()) if self.tracer is not None else ()
            )
            metrics_snapshot = (
                self.metrics.snapshot() if self.metrics is not None else None
            )
            return ExperimentResult(
                names=list(names),
                leakage=leakage,
                overhead=overhead,
                status_counts=status_counts,
                rcode_counts=rcode_counts,
                authenticated_answers=authenticated,
                capture=run_capture,
                traces=traces,
                metrics=metrics_snapshot,
            )

    # ------------------------------------------------------------------
    # PTR side traffic (small, deterministic — see Table 4's PTR column)
    # ------------------------------------------------------------------

    def _wants_ptr(self, name: Name) -> bool:
        if self._ptr_fraction <= 0:
            return False
        digest = hashlib.md5(name.to_text().encode("ascii")).digest()
        return digest[3] / 255.0 < self._ptr_fraction

    def _reverse_name(self, name: Name) -> Optional[Name]:
        address = self.universe.apex_address(name)
        if address is None:
            return None
        octets = address.split(".")
        return Name(list(reversed(octets)) + ["in-addr", "arpa"])

    # ------------------------------------------------------------------
    # Validation-status bookkeeping
    # ------------------------------------------------------------------

    def _status_histogram(self, names: Sequence[Name]) -> Dict[str, int]:
        """Read the resolver's memoised conclusions for the queried
        zones — a pure cache read, so it adds no traffic and cannot
        perturb the captured run.
        """
        counts: Dict[str, int] = {}
        if not self.config.validation_machinery_active:
            return counts
        memo = self.resolver.validator._zone_security
        for name in names:
            security = memo.get(name)
            key = security.status.value if security is not None else "unknown"
            counts[key] = counts.get(key, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Chaos harness: fault plans × degradation policies
# ----------------------------------------------------------------------

#: A scenario scripts faults onto a freshly built universe (typically
#: via :func:`~repro.core.attacks.schedule_outage` /
#: :func:`~repro.core.attacks.schedule_brownout`).  ``None`` = fault-free.
ChaosScenario = Callable[[Universe], None]


def registry_outage_scenario(
    rcode: Optional[RCode] = RCode.SERVFAIL,
    start: float = 0.0,
    end: float = float("inf"),
) -> ChaosScenario:
    """A scenario taking down the DLV registry (Section 8.4).

    ``rcode=None`` black-holes it; an rcode keeps the host answering
    but the service broken — the mode that still *sees* every query.
    """

    def scenario(universe: Universe) -> None:
        schedule_outage(
            universe.network,
            universe.registry_address,
            start=start,
            end=end,
            rcode=rcode,
        )

    return scenario


@dataclasses.dataclass
class ChaosReport:
    """How one resolver policy behaved under one fault scenario."""

    scenario: str
    policy: str
    domains: int
    #: Stub-visible availability.
    noerror: int
    servfail: int
    servfail_rate: float
    mean_response_time: float
    #: Registry exposure while degraded: Case-2 queries the registry
    #: operator could observe (dropped packets never arrive, so a
    #: black-holed registry observes nothing).
    case2_queries: int
    #: DLV queries the registry received (Case-1 plus Case-2), counted
    #: by the classifier the replays also use at the wire.
    registry_queries_delivered: int
    #: Resilience machinery activity.
    stale_served: int
    lookaside_skipped: int
    lookaside_disabled: bool
    #: The cell's walk.
    result: ExperimentResult = dataclasses.field(repr=False)

    def describe(self) -> str:
        return (
            f"[{self.scenario} × {self.policy}] "
            f"servfail {self.servfail_rate:.1%} "
            f"({self.noerror} ok / {self.servfail} fail), "
            f"mean rt {self.mean_response_time * 1000:.0f} ms, "
            f"case-2 exposure {self.case2_queries}, "
            f"stale {self.stale_served}, "
            f"skipped {self.lookaside_skipped}"
            + (" [lookaside auto-disabled]" if self.lookaside_disabled else "")
        )


def _walk_cell(
    universe: Universe,
    config: ResolverConfig,
    names: Sequence[Name],
    setup: Optional[Callable[[Universe], object]],
):
    """The walk every chaos and adversary cell takes: put *setup* (a
    scenario or a persona) on *universe*, walk *names* with a fresh
    resolver, and return ``(result, resolver, deployed)``.

    The walk is traced when *universe* carries telemetry
    (:meth:`~repro.workloads.Universe.attach_telemetry`): the result
    then holds one root span per stub query and a metrics snapshot.
    """
    deployed = setup(universe) if setup is not None else None
    experiment = LeakageExperiment(universe, config)
    return experiment.run(names), experiment.resolver, deployed


def run_chaos_cell(
    universe: Universe,
    config: ResolverConfig,
    names: Sequence[Name],
    scenario: Optional[ChaosScenario] = None,
    scenario_label: str = "none",
    policy_label: str = "",
) -> ChaosReport:
    """One cell of the chaos matrix: script the faults, walk the names
    one stub query at a time, distil availability / latency / exposure.

    The same cell under concurrent load is
    :func:`~repro.core.chaos_replay.run_chaos_replay`.
    """
    result, resolver, _ = _walk_cell(universe, config, names, scenario)
    servfail = result.rcode_counts.get(RCode.SERVFAIL.name, 0)
    total = max(1, len(names))
    return ChaosReport(
        scenario=scenario_label,
        policy=policy_label or config.describe(),
        domains=len(names),
        noerror=result.rcode_counts.get(RCode.NOERROR.name, 0),
        servfail=servfail,
        servfail_rate=servfail / total,
        mean_response_time=result.overhead.response_time / total,
        case2_queries=result.leakage.case2_queries,
        registry_queries_delivered=result.leakage.dlv_queries,
        stale_served=resolver.engine.stale_served,
        lookaside_skipped=resolver.lookaside.searches_skipped,
        lookaside_disabled=resolver.lookaside.disabled,
        result=result,
    )


def _drain_quarantine(quarantined, sink, where: str) -> None:
    """Hand quarantined cells to the caller's sink, or warn so a
    keep-going matrix can never swallow failures silently."""
    if not quarantined:
        return
    if sink is not None:
        sink.extend(quarantined)
        return
    import warnings

    summary = "; ".join(cell.describe() for cell in quarantined)
    warnings.warn(
        f"{where}: {len(quarantined)} cell(s) quarantined and omitted "
        f"from the report list ({summary}); pass quarantine=[] to "
        "collect them, or fail_fast=True to raise instead",
        RuntimeWarning,
        stacklevel=3,
    )


def run_chaos_matrix(
    universe_factory: Callable[[], Universe],
    names: Sequence[Name],
    scenarios: Mapping[str, Optional[ChaosScenario]],
    configs: Mapping[str, ResolverConfig],
    parallelism: int = 1,
    fail_fast: bool = False,
    timeout: Optional[float] = None,
    retries: int = 0,
    quarantine: Optional[List] = None,
) -> List[ChaosReport]:
    """Sweep fault scenarios × resolver policies.

    Every cell gets a *fresh* universe from ``universe_factory`` so the
    cells are independent and each one's capture is reproducible: same
    factory, same names, same scenario ⇒ byte-identical packet trace.
    That independence is also what makes the matrix embarrassingly
    parallel: with ``parallelism > 1`` the cells fan out over a worker
    pool (see :mod:`repro.core.parallel`) and the returned list — in
    the same scenario-major order as the serial sweep — is
    byte-identical to the ``parallelism=1`` run.

    Failure containment (:class:`~repro.core.parallel.FaultTolerantExecutor`):
    by default the matrix **keeps going** — a cell that fails (raises,
    times out against ``timeout``, or loses its worker) is retried
    ``retries`` times and then quarantined, the healthy cells complete,
    and the quarantined ones are appended to the caller's ``quarantine``
    list (or warned about).  ``fail_fast=True`` raises the first cell's
    typed failure instead.

    A factory that attaches telemetry to each universe
    (:meth:`~repro.workloads.Universe.attach_telemetry`) traces every
    cell: each report's ``result`` carries its spans and metrics.
    """
    from .parallel import run_tasks_fault_tolerant

    def make_cell(scenario_label, scenario, policy_label, config):
        def cell() -> ChaosReport:
            return run_chaos_cell(
                universe_factory(),
                config,
                names,
                scenario=scenario,
                scenario_label=scenario_label,
                policy_label=policy_label,
            )

        cell.cell_context = f"chaos '{scenario_label}' × '{policy_label}'"
        return cell

    tasks = [
        make_cell(scenario_label, scenario, policy_label, config)
        for scenario_label, scenario in scenarios.items()
        for policy_label, config in configs.items()
    ]
    results, quarantined, _ = run_tasks_fault_tolerant(
        tasks,
        parallelism=parallelism,
        timeout=timeout,
        retries=retries,
        fail_fast=fail_fast,
    )
    _drain_quarantine(quarantined, quarantine, "run_chaos_matrix")
    return [report for report in results if report is not None]


# ----------------------------------------------------------------------
# Adversary matrix: byzantine personas × hardening policies
# ----------------------------------------------------------------------

#: An adversary scenario deploys a persona (or several) onto a freshly
#: built universe and returns it, so the harness can read its counters
#: and recognise its poison.  ``None`` = the no-adversary control cell.
AdversaryScenario = Callable[[Universe], AdversaryPersona]


@dataclasses.dataclass
class AdversaryReport:
    """How one hardening policy fared against one adversary persona."""

    adversary: str
    policy: str
    domains: int
    #: Stub-visible availability.
    noerror: int
    servfail: int
    servfail_rate: float
    #: Queries the resolver itself sent upstream (excludes stub
    #: traffic): the query packets in the walk's capture whose source
    #: is the resolver.  A send to an address no server holds fails
    #: before it is captured, so it is not counted here.
    upstream_sends: int
    #: ``upstream_sends`` relative to the same policy's no-adversary
    #: baseline — the amplification factor the persona achieved.
    amplification: float
    #: Ground truth: cache entries the persona fabricated.
    poisoned_cache_entries: int
    #: Signature verifications the validator attempted.
    crypto_verify_calls: int
    #: Defence activity (all zero for an unhardened policy).
    hardening: HardeningSnapshot
    #: Responses the persona actually rewrote.
    responses_forged: int
    #: Case-2 leakage, to confirm the defence layer does not perturb
    #: the paper's measurement in the control cell.
    case2_queries: int
    #: The cell's walk.
    result: ExperimentResult = dataclasses.field(repr=False)

    def describe(self) -> str:
        return (
            f"[{self.adversary} × {self.policy}] "
            f"poisoned {self.poisoned_cache_entries}, "
            f"amplification {self.amplification:.1f}x "
            f"({self.upstream_sends} sends), "
            f"crypto {self.crypto_verify_calls}, "
            f"servfail {self.servfail_rate:.1%}, "
            f"defences[{self.hardening.describe()}]"
        )


def run_adversary_cell(
    universe: Universe,
    config: ResolverConfig,
    names: Sequence[Name],
    adversary: Optional[AdversaryScenario] = None,
    adversary_label: str = "none",
    policy_label: str = "",
    baseline_sends: Optional[int] = None,
) -> AdversaryReport:
    """One cell: deploy the persona, walk the names, read the damage.

    ``baseline_sends`` is the same policy's no-adversary send count; when
    given, ``amplification`` is relative to it (else 1.0).  The same
    cell under concurrent load is
    :func:`~repro.core.chaos_replay.run_adversary_replay`.
    """
    result, resolver, persona = _walk_cell(universe, config, names, adversary)
    sends = sum(
        1 for record in result.capture.queries() if record.src == resolver.address
    )
    servfail = result.rcode_counts.get(RCode.SERVFAIL.name, 0)
    return AdversaryReport(
        adversary=adversary_label,
        policy=policy_label or config.hardening.describe(),
        domains=len(names),
        noerror=result.rcode_counts.get(RCode.NOERROR.name, 0),
        servfail=servfail,
        servfail_rate=servfail / max(1, len(names)),
        upstream_sends=sends,
        amplification=sends / baseline_sends if baseline_sends else 1.0,
        poisoned_cache_entries=(
            poisoned_cache_entries(resolver, [persona]) if persona is not None else 0
        ),
        crypto_verify_calls=resolver.validator.crypto_verify_calls,
        hardening=hardening_snapshot(resolver),
        responses_forged=persona.responses_forged if persona is not None else 0,
        case2_queries=result.leakage.case2_queries,
        result=result,
    )


def run_adversary_matrix(
    universe_factory: Callable[[], Universe],
    names: Sequence[Name],
    adversaries: Mapping[str, Optional[AdversaryScenario]],
    configs: Mapping[str, ResolverConfig],
    parallelism: int = 1,
    fail_fast: bool = False,
    timeout: Optional[float] = None,
    retries: int = 0,
    quarantine: Optional[List] = None,
) -> List[AdversaryReport]:
    """Sweep adversary personas × hardening policies.

    For every policy a no-adversary baseline cell runs first (reported
    with label ``none`` unless the caller supplied their own) and its
    upstream-send count anchors the amplification factors of that
    policy's adversary cells.  Fresh universe per cell, as in
    :func:`run_chaos_matrix`, so cells are independent and
    reproducible.

    With ``parallelism > 1`` the sweep runs in two waves — all policy
    baselines, then all adversary cells (which need the baseline send
    counts) — and the reports are reassembled into the serial order
    (baseline, then adversaries, per policy).  Cell independence makes
    the parallel report list byte-identical to the serial one.

    Failure containment mirrors :func:`run_chaos_matrix`: keep-going
    with bounded retries and quarantine by default, ``fail_fast=True``
    to raise.  A quarantined *baseline* also sidelines that policy's
    adversary cells (their amplification factor would be meaningless),
    recording them with error ``baseline-quarantined``.
    """
    from .parallel import QuarantinedCell, run_tasks_fault_tolerant

    policies = list(configs.items())
    active_adversaries = [
        (label, scenario)
        for label, scenario in adversaries.items()
        if scenario is not None
    ]

    def make_cell(config, policy_label, adversary_label="none",
                  scenario=None, baseline_sends=None):
        def cell() -> AdversaryReport:
            return run_adversary_cell(
                universe_factory(),
                config,
                names,
                adversary=scenario,
                adversary_label=adversary_label,
                policy_label=policy_label,
                baseline_sends=baseline_sends,
            )

        cell.cell_context = f"adversary '{adversary_label}' × '{policy_label}'"
        return cell

    all_quarantined: List[QuarantinedCell] = []
    baselines, quarantined, _ = run_tasks_fault_tolerant(
        [make_cell(config, policy_label) for policy_label, config in policies],
        parallelism=parallelism,
        timeout=timeout,
        retries=retries,
        fail_fast=fail_fast,
    )
    all_quarantined.extend(quarantined)
    adversary_tasks = []
    skipped: List[QuarantinedCell] = []
    for policy_index, (policy_label, config) in enumerate(policies):
        baseline = baselines[policy_index]
        for adversary_label, scenario in active_adversaries:
            if baseline is None:
                skipped.append(
                    QuarantinedCell(
                        index=-1,
                        context=(
                            f"cell [adversary '{adversary_label}' × "
                            f"'{policy_label}']"
                        ),
                        attempts=0,
                        error="baseline-quarantined",
                        detail="policy baseline failed; amplification "
                        "denominator unavailable",
                    )
                )
                continue
            adversary_tasks.append(
                make_cell(
                    config,
                    policy_label,
                    adversary_label=adversary_label,
                    scenario=scenario,
                    baseline_sends=baseline.upstream_sends,
                )
            )
    adversary_reports, quarantined, _ = run_tasks_fault_tolerant(
        adversary_tasks,
        parallelism=parallelism,
        timeout=timeout,
        retries=retries,
        fail_fast=fail_fast,
    )
    all_quarantined.extend(quarantined)
    all_quarantined.extend(skipped)
    reports: List[AdversaryReport] = []
    cursor = 0
    for policy_index, baseline in enumerate(baselines):
        if baseline is None:
            continue
        reports.append(baseline)
        for report in adversary_reports[
            cursor:cursor + len(active_adversaries)
        ]:
            if report is not None:
                reports.append(report)
        cursor += len(active_adversaries)
    _drain_quarantine(all_quarantined, quarantine, "run_adversary_matrix")
    return reports


class _CaptureSlice:
    """A read-only view over a subset of capture records, exposing the
    Capture analysis API the classifier and metrics need."""

    def __init__(self, records):
        self._records = list(records)

    def __iter__(self):
        return iter(self._records)

    def __len__(self):
        return len(self._records)

    def queries(self):
        return [r for r in self._records if r.is_query]

    def queries_of_type(self, rtype: RRType):
        return [
            r for r in self._records if r.is_query and r.qtype is rtype
        ]

    def queries_to(self, address: str):
        return [
            r for r in self._records if r.is_query and r.dst == address
        ]

    def total_bytes(self) -> int:
        return sum(r.wire_size for r in self._records)

    def query_count(self) -> int:
        return sum(1 for r in self._records if r.is_query)

    def query_type_histogram(self):
        counts: Dict[RRType, int] = {}
        for record in self._records:
            if record.is_query and record.qtype is not None:
                counts[record.qtype] = counts.get(record.qtype, 0) + 1
        return counts
