"""Tracing + metrics layer: span mechanics, determinism, export."""

import pytest

from repro.core import (
    LeakageExperiment,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
    deploy_spoofer,
    export_traces_jsonl,
    import_traces_jsonl,
    observer_trace_summary,
    registry_outage_scenario,
    render_span_tree,
    run_adversary_cell,
    run_chaos_matrix,
    standard_universe,
    standard_workload,
)
from repro.core.metrics import Counter, Histogram
from repro.dnscore import RRType
from repro.netsim import SimClock
from repro.resolver import correct_bind_config

DOMAINS = 16
FILLER = 300
RUN = 6


def make_traced_run(trace=True, metrics=True, seed=2016):
    workload = standard_workload(DOMAINS, seed=seed)
    universe = standard_universe(workload, filler_count=FILLER)
    experiment = LeakageExperiment(
        universe,
        correct_bind_config(),
        ptr_fraction=0.0,
        tracer=Tracer(universe.clock) if trace else None,
        metrics=MetricsRegistry() if metrics else None,
    )
    return experiment.run(workload.names(RUN))


# ----------------------------------------------------------------------
# Tracer mechanics (no simulator involved)
# ----------------------------------------------------------------------


def test_span_stack_nesting_and_drain():
    tracer = Tracer(SimClock())
    tracer.begin("root", kind="outer")
    tracer.begin("child")
    tracer.event("leaf", n=1)
    tracer.finish(ok=True)
    tracer.finish()
    roots = tracer.drain()
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "root" and root.attrs["kind"] == "outer"
    assert [span.name for span in root.walk()] == ["root", "child", "leaf"]
    assert root.children[0].attrs["ok"] is True
    assert tracer.drain() == []  # drained


def test_finish_without_begin_raises():
    tracer = Tracer(SimClock())
    with pytest.raises(RuntimeError):
        tracer.finish()


def test_annotate_targets_innermost_open_span():
    tracer = Tracer(SimClock())
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.finish()
    tracer.annotate(leak="case-2")  # inner already closed -> outer
    tracer.finish()
    (root,) = tracer.drain()
    assert root.attrs["leak"] == "case-2"
    assert "leak" not in root.children[0].attrs


def test_null_tracer_accepts_everything():
    tracer = NullTracer()
    tracer.begin("x", a=1)
    tracer.annotate(b=2)
    tracer.event("y")
    tracer.finish()
    tracer.finish()  # never raises, even unbalanced
    with tracer.span("z"):
        pass
    assert tracer.drain() == []
    assert tracer.open_depth == 0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


def test_metrics_registry_counts_and_snapshots():
    registry = MetricsRegistry()
    registry.inc("a.b")
    registry.inc("a.b", 4)
    registry.observe("lat", 0.25)
    registry.observe("lat", 0.75)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a.b": 5}
    assert snapshot["histograms"]["lat"]["count"] == 2
    assert snapshot["histograms"]["lat"]["mean"] == 0.5
    assert isinstance(registry.counter("a.b"), Counter)
    assert isinstance(registry.histogram("lat"), Histogram)


def test_null_metrics_registry_records_nothing():
    registry = NullMetricsRegistry()
    registry.inc("a", 10)
    registry.observe("b", 1.0)
    registry.counter("c").inc()
    registry.histogram("d").observe(2.0)
    assert len(registry) == 0
    assert registry.snapshot() == {"counters": {}, "histograms": {}}
    assert not registry.enabled
    assert NULL_METRICS.snapshot() == {"counters": {}, "histograms": {}}


# ----------------------------------------------------------------------
# Traced experiment runs
# ----------------------------------------------------------------------


def test_traced_run_produces_one_root_per_query():
    result = make_traced_run()
    assert len(result.traces) == RUN
    for root in result.traces:
        assert root.name == "resolution"
        assert root.parent_id is None
        assert root.end is not None and root.end >= root.start


def test_case2_leak_tagged_on_lookaside_span():
    result = make_traced_run()
    tagged = [
        span
        for root in result.traces
        for span in root.walk()
        if span.name == "lookaside" and span.attrs.get("leak") == "case-2"
    ]
    assert tagged, "expected at least one Case-2 look-aside search"
    for span in tagged:
        assert span.attrs["leak_point"].endswith(".dlv.isc.org.")
    # Case-2 probes in traces must match the classifier's count.
    probes = [
        span
        for root in result.traces
        for span in root.walk()
        if span.name == "dlv_probe" and span.attrs.get("leak") == "case-2"
    ]
    assert len(probes) == result.leakage.case2_queries


def test_trace_export_is_deterministic_across_runs():
    first = export_traces_jsonl(make_traced_run().traces)
    second = export_traces_jsonl(make_traced_run().traces)
    assert first == second
    assert first.endswith("\n")


def test_trace_export_differs_across_seeds():
    first = export_traces_jsonl(make_traced_run(seed=2016).traces)
    second = export_traces_jsonl(make_traced_run(seed=7).traces)
    assert first != second


def test_trace_roundtrip_import_equals_export():
    text = export_traces_jsonl(make_traced_run().traces)
    roots = import_traces_jsonl(text)
    assert export_traces_jsonl(roots) == text


def test_metrics_snapshot_deterministic_and_consistent():
    first = make_traced_run()
    second = make_traced_run()
    assert first.metrics == second.metrics
    counters = first.metrics["counters"]
    assert counters["resolver.resolutions"] == RUN
    assert counters["lookaside.case2_probes"] == first.leakage.case2_queries
    # Transport sees at least every engine send (plus stub traffic).
    assert counters["net.exchanges"] >= counters["engine.queries_sent"]


def test_untraced_run_has_no_telemetry():
    result = make_traced_run(trace=False, metrics=False)
    assert result.traces == ()
    assert result.metrics is None


def test_traced_and_untraced_runs_agree_on_leakage():
    traced = make_traced_run()
    untraced = make_traced_run(trace=False, metrics=False)
    assert traced.leakage.leaked_count == untraced.leakage.leaked_count
    assert traced.leakage.case2_queries == untraced.leakage.case2_queries
    assert traced.rcode_counts == untraced.rcode_counts


def test_render_span_tree_shape():
    result = make_traced_run()
    text = render_span_tree(result.traces[0])
    lines = text.splitlines()
    assert lines[0].startswith("resolution ")
    assert any(line.startswith(("├── ", "└── ")) for line in lines[1:])


def test_observer_trace_summary_attributes_leaks_to_registry():
    workload = standard_workload(DOMAINS)
    universe = standard_universe(workload, filler_count=FILLER)
    experiment = LeakageExperiment(
        universe,
        correct_bind_config(),
        ptr_fraction=0.0,
        tracer=Tracer(universe.clock),
        metrics=MetricsRegistry(),
    )
    result = experiment.run(workload.names(RUN))
    summaries = {s.address: s for s in observer_trace_summary(result.traces)}
    registry = summaries[universe.registry_address]
    assert registry.case2_probes == result.leakage.case2_queries
    assert registry.leaked_qnames
    others_case2 = sum(
        s.case2_probes
        for address, s in summaries.items()
        if address != universe.registry_address
    )
    assert others_case2 == 0


# ----------------------------------------------------------------------
# Traced chaos and adversary cells: telemetry attached to the universe
# ----------------------------------------------------------------------


def _traced_universe():
    universe = standard_universe(standard_workload(DOMAINS), filler_count=FILLER)
    universe.attach_telemetry(
        tracer=Tracer(universe.clock), metrics=MetricsRegistry()
    )
    return universe


def _assert_one_root_per_stub_query(result):
    # Stub queries are the only ones sent with recursion desired.
    stub_queries = sum(
        1 for record in result.capture.queries() if record.message.flags.rd
    )
    assert stub_queries >= len(result.names) > 0
    assert len(result.traces) == stub_queries
    for root in result.traces:
        assert root.name == "resolution"
        assert root.parent_id is None
    assert result.metrics["counters"]["resolver.resolutions"] == stub_queries


def test_traced_chaos_matrix_carries_each_cells_telemetry():
    names = standard_workload(DOMAINS).names(RUN)
    scenarios = {
        "none": None,
        "registry-blackhole": registry_outage_scenario(rcode=None),
    }
    configs = {"fallback": correct_bind_config()}
    traced = run_chaos_matrix(_traced_universe, names, scenarios, configs)
    assert [report.scenario for report in traced] == list(scenarios)
    for report in traced:
        _assert_one_root_per_stub_query(report.result)
    outage = traced[1].result
    assert any(
        span.name == "fault" and span.attrs["kind"] == "outage_blackhole"
        for root in outage.traces
        for span in root.walk()
    )
    # Tracing observes the cells without changing them.
    untraced = run_chaos_matrix(
        lambda: standard_universe(standard_workload(DOMAINS), filler_count=FILLER),
        names,
        scenarios,
        configs,
    )
    assert [r.describe() for r in traced] == [r.describe() for r in untraced]
    assert all(report.result.metrics is None for report in untraced)


def test_traced_adversary_cell_carries_its_telemetry():
    report = run_adversary_cell(
        _traced_universe(),
        correct_bind_config(),
        standard_workload(DOMAINS).names(RUN),
        adversary=lambda universe: deploy_spoofer(universe, seed=9),
        adversary_label="spoofer",
    )
    assert report.responses_forged > 0
    _assert_one_root_per_stub_query(report.result)
    counters = report.result.metrics["counters"]
    assert counters["hardening.spoofs_rejected"] == (
        report.hardening.spoofs_rejected
    )
    assert report.hardening.spoofs_rejected > 0
