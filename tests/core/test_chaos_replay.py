"""Chaos replay: availability monoid laws, load semantics, equivalence.

Three contracts certify the concurrent chaos driver:

* **Availability-extended monoid** — the new :class:`ReplayWindow`
  counters (servfails, timeouts, retries, stale_served, admission
  counts) and the mergeable latency histogram obey the same laws as the
  original fields: associative + commutative merge, identity element,
  and the window fold reproducing the overall totals.
* **Single-session byte-identity** — running a chaos or adversary
  cell's experiment through the scheduler as a single session
  reproduces the serial result fingerprint *and* trace JSONL for every
  fault plan and every byzantine persona.  This is what licenses
  reading the ``load>1`` curves as "the same experiment, busier";
  ``load=1`` itself is the serial cell.
* **Determinism + shedding** — same universe/config/load ⇒ same
  :func:`chaos_replay_fingerprint`; a bounded admission queue sheds
  arrivals without losing accounting (every budgeted query is either
  answered, failed, or counted as shed).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    LATENCY_BUCKET_BOUNDS,
    LeakageExperiment,
    MetricsRegistry,
    ReplayLoad,
    ReplayWindow,
    Tracer,
    chaos_replay_fingerprint,
    coerce_load,
    deploy_poisoner,
    deploy_referral_bomber,
    deploy_sig_bomber,
    deploy_spoofer,
    empty_latency_buckets,
    empty_replay_window,
    export_traces_jsonl,
    fold_windows,
    latency_bucket_index,
    latency_quantile,
    merge_latency_buckets,
    merge_replay_windows,
    poisoned_cache_entries,
    registry_outage_scenario,
    result_fingerprint,
    run_chaos_cell,
    run_chaos_replay,
    run_experiment_in_session,
    schedule_brownout,
    standard_universe,
    standard_workload,
)
from repro.dnscore import RCode
from repro.resolver import DlvOutagePolicy, correct_bind_config

WORKLOAD_SEED = 43
DOMAINS = 20
FILLER = 60

SMALL_LOAD = ReplayLoad(
    users=4,
    per_user_qps=0.05,
    queries=100,
    window_seconds=200.0,
    max_concurrent=16,
    seed=5,
)


def make_universe():
    workload = standard_workload(DOMAINS, seed=WORKLOAD_SEED)
    return standard_universe(workload, filler_count=FILLER, seed=WORKLOAD_SEED)


def experiment_names():
    return [
        spec.name
        for spec in standard_workload(DOMAINS, seed=WORKLOAD_SEED).domains
    ]


# ----------------------------------------------------------------------
# Latency histogram primitives
# ----------------------------------------------------------------------


def test_bucket_index_maps_bounds_inclusively():
    assert latency_bucket_index(0.0) == 0
    assert latency_bucket_index(LATENCY_BUCKET_BOUNDS[0]) == 0
    for i, bound in enumerate(LATENCY_BUCKET_BOUNDS):
        assert latency_bucket_index(bound) == i
    # Beyond the last bound clamps into the last (overflow) bucket.
    assert (
        latency_bucket_index(LATENCY_BUCKET_BOUNDS[-1] * 10)
        == len(LATENCY_BUCKET_BOUNDS) - 1
    )


def test_latency_quantile_picks_bucket_upper_bounds():
    buckets = list(empty_latency_buckets())
    buckets[latency_bucket_index(0.004)] = 98
    buckets[latency_bucket_index(3.0)] = 2
    buckets = tuple(buckets)
    assert latency_quantile(buckets, 0.50) == 0.005
    assert latency_quantile(buckets, 0.99) == 5.0
    assert latency_quantile((), 0.99) == 0.0
    assert latency_quantile(empty_latency_buckets(), 0.5) == 0.0


bucket_tuples = st.lists(
    st.integers(min_value=0, max_value=500),
    min_size=0,
    max_size=len(LATENCY_BUCKET_BOUNDS),
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(a=bucket_tuples, b=bucket_tuples, c=bucket_tuples)
def test_bucket_merge_is_associative_commutative_with_identity(a, b, c):
    merge = merge_latency_buckets
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    # Commutative up to zero-padding: compare padded forms.
    assert merge(a, b) == merge(b, a)
    assert merge((), a) == merge(a, ())
    assert sum(merge((), a)) == sum(a)


@settings(max_examples=40, deadline=None)
@given(a=bucket_tuples, b=bucket_tuples)
def test_bucket_merge_is_exact(a, b):
    """Histogram merge loses nothing: totals add and quantiles of the
    merge are bounded by the max of the inputs' quantiles."""
    merged = merge_latency_buckets(a, b)
    assert sum(merged) == sum(a) + sum(b)
    if sum(a) and sum(b):
        for q in (0.5, 0.9, 0.99):
            assert latency_quantile(merged, q) <= max(
                latency_quantile(a, q), latency_quantile(b, q)
            ) or latency_quantile(merged, q) in (
                latency_quantile(a, q),
                latency_quantile(b, q),
            )


# ----------------------------------------------------------------------
# Availability-extended monoid laws
# ----------------------------------------------------------------------

dyadic = st.integers(min_value=0, max_value=1 << 16).map(lambda k: k / 256.0)
counts = st.integers(min_value=0, max_value=1000)
domains = st.frozensets(
    st.sampled_from(["a.com", "b.net", "c.org", "d.io", "e.de"]), max_size=5
)


@st.composite
def availability_windows(draw):
    start = draw(dyadic)
    return ReplayWindow(
        start=start,
        end=start + draw(dyadic),
        queries=draw(counts),
        failures=draw(counts),
        dlv_queries=draw(counts),
        case1_queries=draw(counts),
        case2_queries=draw(counts),
        leaked_domains=draw(domains),
        cache_hits=draw(counts),
        cache_misses=draw(counts),
        packets=draw(counts),
        wire_bytes=draw(counts),
        dropped=draw(counts),
        latency_sum=draw(dyadic),
        latency_max=draw(dyadic),
        sessions_started=draw(counts),
        sessions_completed=draw(counts),
        servfails=draw(counts),
        timeouts=draw(counts),
        retries=draw(counts),
        stale_served=draw(counts),
        admission_queued=draw(counts),
        admission_rejected=draw(counts),
        latency_buckets=draw(bucket_tuples),
    )


@settings(max_examples=80, deadline=None)
@given(a=availability_windows(), b=availability_windows(), c=availability_windows())
def test_extended_merge_is_associative_and_commutative(a, b, c):
    merge = merge_replay_windows
    assert merge(merge(a, b), c) == merge(a, merge(b, c))
    assert merge(a, b) == merge(b, a)


@settings(max_examples=40, deadline=None)
@given(w=availability_windows())
def test_empty_window_is_identity_for_extended_fields(w):
    empty = empty_replay_window()
    assert merge_replay_windows(empty, w) == w
    assert merge_replay_windows(w, empty) == w


@settings(max_examples=40, deadline=None)
@given(a=availability_windows(), b=availability_windows())
def test_extended_counters_add_under_merge(a, b):
    merged = merge_replay_windows(a, b)
    assert merged.servfails == a.servfails + b.servfails
    assert merged.timeouts == a.timeouts + b.timeouts
    assert merged.retries == a.retries + b.retries
    assert merged.stale_served == a.stale_served + b.stale_served
    assert merged.admission_queued == a.admission_queued + b.admission_queued
    assert (
        merged.admission_rejected
        == a.admission_rejected + b.admission_rejected
    )
    assert sum(merged.latency_buckets) == sum(a.latency_buckets) + sum(
        b.latency_buckets
    )


# ----------------------------------------------------------------------
# Window fold == overall on a real chaos replay
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def outage_replay():
    return run_chaos_replay(
        make_universe(),
        correct_bind_config(dlv_outage_policy=DlvOutagePolicy.SERVFAIL),
        experiment_names(),
        scenario=registry_outage_scenario(
            rcode=RCode.SERVFAIL, start=100.0, end=900.0
        ),
        scenario_label="registry-servfail",
        policy_label="strict",
        load=SMALL_LOAD,
    )


def test_window_fold_reproduces_overall(outage_replay):
    assert fold_windows(outage_replay.windows) == outage_replay.overall
    folded = empty_replay_window()
    for window in outage_replay.windows:
        folded = merge_replay_windows(folded, window)
    assert folded == outage_replay.overall
    for earlier, later in zip(outage_replay.windows, outage_replay.windows[1:]):
        assert earlier.end == later.start


def test_outage_replay_sees_the_fault(outage_replay):
    assert outage_replay.fault_bounds == (100.0, 900.0)
    during = outage_replay.during_fault()
    assert during.queries > 0
    assert during.servfails > 0
    assert outage_replay.overall.queries == SMALL_LOAD.query_budget()
    # Latency histogram counts every completed (non-shed) session.
    assert sum(outage_replay.overall.latency_buckets) == (
        outage_replay.overall.queries
    )


def test_chaos_replay_is_deterministic(outage_replay):
    again = run_chaos_replay(
        make_universe(),
        correct_bind_config(dlv_outage_policy=DlvOutagePolicy.SERVFAIL),
        experiment_names(),
        scenario=registry_outage_scenario(
            rcode=RCode.SERVFAIL, start=100.0, end=900.0
        ),
        scenario_label="registry-servfail",
        policy_label="strict",
        load=SMALL_LOAD,
    )
    assert chaos_replay_fingerprint(again) == chaos_replay_fingerprint(
        outage_replay
    )


def test_bounded_admission_sheds_but_keeps_accounting():
    load = dataclasses.replace(SMALL_LOAD, max_concurrent=1, max_queue=0)
    replay = run_chaos_replay(
        make_universe(),
        correct_bind_config(),
        experiment_names(),
        load=load,
    )
    overall = replay.overall
    assert overall.admission_rejected > 0
    # Shed arrivals still count against the budget — as failures with no
    # latency sample.
    assert overall.queries == load.query_budget()
    assert overall.failures >= overall.admission_rejected
    assert sum(overall.latency_buckets) == (
        overall.queries - overall.admission_rejected
    )


# ----------------------------------------------------------------------
# coerce_load
# ----------------------------------------------------------------------


def test_coerce_load_normalises():
    assert coerce_load(None) is None
    assert coerce_load(1) is None
    assert coerce_load(SMALL_LOAD) is SMALL_LOAD
    eight = coerce_load(8)
    assert isinstance(eight, ReplayLoad) and eight.users == 8


@pytest.mark.parametrize("bad", [True, False, 1.5, "4"])
def test_coerce_load_rejects_non_ints(bad):
    with pytest.raises(TypeError):
        coerce_load(bad)


@pytest.mark.parametrize("bad", [0, -1])
def test_coerce_load_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        coerce_load(bad)


# ----------------------------------------------------------------------
# Single-session byte-identity: chaos cells
# ----------------------------------------------------------------------


def _brownout_scenario(universe):
    schedule_brownout(
        universe.network,
        universe.registry_address,
        start=0.0,
        end=float("inf"),
        extra_latency=0.05,
    )


FAULT_PLANS = {
    "none": None,
    "registry-servfail": registry_outage_scenario(rcode=RCode.SERVFAIL),
    "registry-blackhole": registry_outage_scenario(rcode=None),
    "registry-brownout": _brownout_scenario,
}


def _serial_and_session(setup):
    """The traced matrix-cell experiment on twin universes that *setup*
    scripted or attacked: one run serially, one as a single scheduler
    session.  Returns ``(result, experiment, deployed)`` per run."""
    names = experiment_names()
    runs = []
    for run in (LeakageExperiment.run, run_experiment_in_session):
        universe = make_universe()
        deployed = setup(universe) if setup is not None else None
        experiment = LeakageExperiment(
            universe,
            correct_bind_config(),
            tracer=Tracer(universe.clock),
            metrics=MetricsRegistry(),
        )
        runs.append((run(experiment, names), experiment, deployed))
    (serial, _, _), (session, _, _) = runs
    assert result_fingerprint(session) == result_fingerprint(serial)
    assert export_traces_jsonl(session.traces) == export_traces_jsonl(
        serial.traces
    )
    return runs


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
def test_chaos_cell_load_one_is_byte_identical_to_serial(plan):
    _serial_and_session(FAULT_PLANS[plan])


def test_load_one_is_the_serial_cell():
    scenario = FAULT_PLANS["registry-blackhole"]
    serial, once = (
        run_chaos_cell(
            make_universe(), correct_bind_config(), experiment_names(),
            scenario=scenario, load=load,
        )
        for load in (None, 1)
    )
    assert once.replay is None
    assert result_fingerprint(once.result) == result_fingerprint(serial.result)


# ----------------------------------------------------------------------
# Single-session byte-identity: adversary cells
# ----------------------------------------------------------------------


def _victims():
    return experiment_names()[:5]


PERSONAS = {
    "spoofer": lambda u: deploy_spoofer(u, seed=9),
    "poisoner": lambda u: deploy_poisoner(u, victims=_victims(), seed=9),
    "referral-bomber": lambda u: deploy_referral_bomber(u, seed=9),
    "sig-bomber": lambda u: deploy_sig_bomber(u, seed=9),
}


@pytest.mark.parametrize("persona", sorted(PERSONAS))
def test_adversary_cell_load_one_is_byte_identical_to_serial(persona):
    (_, serial, forger), (_, session, twin) = _serial_and_session(
        PERSONAS[persona]
    )
    assert twin.responses_forged == forger.responses_forged
    assert session.resolver.engine.queries_sent == (
        serial.resolver.engine.queries_sent
    )
    assert poisoned_cache_entries(session.resolver, [twin]) == (
        poisoned_cache_entries(serial.resolver, [forger])
    )


# ----------------------------------------------------------------------
# Adversary replay under load
# ----------------------------------------------------------------------


def test_adversary_replay_under_load_reports_persona_damage():
    from repro.core import run_adversary_replay

    replay = run_adversary_replay(
        make_universe(),
        correct_bind_config(),
        experiment_names(),
        adversary=PERSONAS["spoofer"],
        adversary_label="spoofer",
        load=SMALL_LOAD,
    )
    assert replay.adversary == "spoofer"
    assert replay.responses_forged > 0
    assert replay.overall.queries == SMALL_LOAD.query_budget()
    assert replay.hardening is not None
