"""Tracing/metrics overhead: instrumentation must be free when off.

Three arms run the ``bench_substrate_perf`` full-resolution workload:

* **off**  — no telemetry attached (``tracer=None``/``metrics=None``,
  the default every experiment runs with);
* **noop** — :class:`~repro.core.tracing.NullTracer` and
  :class:`~repro.core.metrics.NullMetricsRegistry` attached (every
  emission point fires into a sink that discards it);
* **on**   — a real :class:`~repro.core.tracing.Tracer` and
  :class:`~repro.core.metrics.MetricsRegistry`.

The contract asserted here: the *off* arm pays at most 5 % relative to
itself across attachments — i.e. ``noop`` (which exercises every
``if tracer is not None`` guard plus the sink call) stays within 5 %
of ``off``.  Results land in ``BENCH_tracing.json`` at the repo root
so the perf trajectory is tracked across revisions.
"""

import time

from conftest import record

from repro.core import (
    LeakageExperiment,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Tracer,
    standard_universe,
    standard_workload,
)
from repro.dnscore import RRType
from repro.resolver import correct_bind_config

DOMAINS = 150
FILLER = 1000
REPEATS = 3
MAX_DISABLED_OVERHEAD = 0.05


def _make_sinks(arm, universe):
    if arm == "off":
        return None, None
    if arm == "noop":
        return NullTracer(), NullMetricsRegistry()
    return Tracer(universe.clock), MetricsRegistry()


def _run_arm(arm):
    """One timed pass: fresh universe (untimed build), resolve every
    workload name once.  Identical work across arms by construction —
    the simulation is deterministic, only the sinks differ."""
    workload = standard_workload(DOMAINS)
    universe = standard_universe(workload, filler_count=FILLER)
    tracer, metrics = _make_sinks(arm, universe)
    universe.attach_telemetry(tracer=tracer, metrics=metrics)
    experiment = LeakageExperiment(
        universe, correct_bind_config(), ptr_fraction=0.0
    )
    names = workload.names(DOMAINS)
    start = time.perf_counter()
    for name in names:
        experiment.resolver.resolve(name, RRType.A)
    elapsed = time.perf_counter() - start
    if universe.tracer is not None:
        universe.tracer.drain()
    return elapsed


def test_tracing_overhead():
    timings = {}
    for arm in ("off", "noop", "on"):
        timings[arm] = min(_run_arm(arm) for _ in range(REPEATS))
    noop_overhead = timings["noop"] / timings["off"] - 1.0
    on_overhead = timings["on"] / timings["off"] - 1.0
    payload = {
        "workload": {"domains": DOMAINS, "filler": FILLER, "repeats": REPEATS},
        "seconds": {arm: round(value, 4) for arm, value in timings.items()},
        "overhead": {
            "noop_vs_off": round(noop_overhead, 4),
            "on_vs_off": round(on_overhead, 4),
        },
    }
    written = record("tracing", payload)
    print()
    print(f"off  {timings['off']:.3f}s")
    print(f"noop {timings['noop']:.3f}s ({noop_overhead:+.1%})")
    print(f"on   {timings['on']:.3f}s ({on_overhead:+.1%})")
    print(f"written to {written.name}")
    assert noop_overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled-tracing overhead {noop_overhead:.1%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%}: the None-guards or null sinks "
        "grew a hot-path cost"
    )
