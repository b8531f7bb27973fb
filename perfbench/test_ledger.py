"""Tests of the benchmark's per-layer ledger, on tiny workloads.

Run from the repository root: ``python3 -m pytest perfbench/test_ledger.py``.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import ledger  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


def tiny(name: str, scratch: Path):
    if name == "fig8-cold":
        return workloads.Fig8Cold(names=40, filler=300)
    if name == "replay-warm":
        return workloads.ReplayWarm(queries=300)
    if name == "chaos-blackhole":
        return workloads.ChaosBlackhole(queries=400)
    return workloads.SweepStored(str(scratch), sizes=(10, 20), filler=100)


def traced_pass(workload):
    book = ledger.Ledger()
    handle = ledger.install(book)
    try:
        state = workload.prepare(SEED)
        outcome = book.window(lambda: workload.call(state))
        checked = workload.check(state, outcome, resume=False)
    finally:
        handle.remove()
    return book, handle, checked


def untraced_pass(workload):
    state = workload.prepare(SEED)
    return workload.check(state, workload.call(state), resume=False)


@pytest.mark.parametrize("name", ["fig8-cold", "replay-warm", "chaos-blackhole"])
def test_self_times_and_the_unattributed_rest_add_up_to_the_traced_wall(name, tmp_path):
    book, _, checked = traced_pass(tiny(name, tmp_path))
    assert checked.failed == 0, checked.problems
    assert math.isclose(sum(book.self_s.values()), book.wall, rel_tol=1e-9)
    assert book.attributed() > 0.9 * book.wall


@pytest.mark.parametrize(
    "name", ["fig8-cold", "replay-warm", "chaos-blackhole", "sweep-stored"]
)
def test_traced_fingerprint_equals_untraced(name, tmp_path):
    untraced = untraced_pass(tiny(name, tmp_path / "untraced"))
    _, _, traced = traced_pass(tiny(name, tmp_path / "traced"))
    assert untraced.failed == traced.failed == 0
    assert traced.fingerprint == untraced.fingerprint


def test_every_wrapper_is_removed_after_the_traced_run(tmp_path):
    _, handle, _ = traced_pass(tiny("replay-warm", tmp_path))
    assert handle.patched
    assert handle.leftover() == []
    for owner, name, original in handle.patched:
        assert not hasattr(original, "__wrapped__"), f"{owner.__name__}.{name}"


def test_fig8_cold_leaves_scheduler_executor_and_store_at_zero(tmp_path):
    book, _, checked = traced_pass(tiny("fig8-cold", tmp_path))
    values = ledger.layer_metrics(book, checked.useful_share)
    quiet = {
        name: value for name, value in values.items()
        if name.startswith(("netsim.sched.", "core.parallel.", "core.store."))
    }
    assert quiet and not any(quiet.values()), quiet
    assert values["crypto.sign.calls"] > 0
    assert values["resolver.recursive.stub_queries"] == checked.stub_queries


def test_replay_suspensions_are_charged_to_the_hand_off(tmp_path):
    book, _, checked = traced_pass(tiny("chaos-blackhole", tmp_path))
    values = ledger.layer_metrics(book, checked.useful_share)
    assert values["netsim.sched.suspends"] > values["resolver.recursive.stub_queries"]
    assert values["netsim.sched.handoff_s"] > 0
    assert values["netsim.sched.sessions"] == checked.stub_queries
    assert 0 < values["netsim.sched.run_ahead_share"] < 1
    assert values["netsim.network.timeouts"] > 0


@pytest.mark.parametrize("name", ["replay-warm", "chaos-blackhole"])
def test_replay_check_fails_windows_that_disagree_with_the_program(name, tmp_path):
    workload = tiny(name, tmp_path)
    state = workload.prepare(SEED)
    outcome = workload.call(state)
    windows = outcome.windows
    first = windows[0]
    windows[0] = dataclasses.replace(
        first, sessions_completed=first.sessions_completed + 1
    )
    checked = workload.check(state, outcome, resume=False)
    assert checked.failed == checked.operations
    assert any("sessions_completed" in problem for problem in checked.problems)


def test_every_declared_per_layer_metric_is_measured():
    measured = (
        set(ledger.LAYER_METRICS)
        | set(measure._hit_shares())
        | {"trace.coverage", "trace.overhead"}
    )
    assert measured == set(run.declared("per_layer"))


def test_run_fails_without_the_program_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "fig8-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
