"""The fault-tolerant executor: failure context, dead-worker
detection, timeouts, retries with deterministic backoff, quarantine,
and the no-hung-processes guarantee."""

import multiprocessing
import os
import pickle
import signal

import pytest

from repro.core import (
    CellTimeout,
    ExecutorHealth,
    FaultInjection,
    FaultTolerantExecutor,
    QuarantineError,
    TaskFailure,
    WorkerLost,
    backoff_schedule,
    run_tasks_fault_tolerant,
    task_context,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

fork_only = pytest.mark.skipif(
    not HAVE_FORK, reason="needs fork start method"
)


def _ok(value):
    def task():
        return value

    return task


def _boom(message):
    def task():
        raise ValueError(message)

    return task


def _die(sig=signal.SIGKILL):
    def task():
        os.kill(os.getpid(), sig)

    return task


def _hang():
    def task():  # pragma: no cover - killed by the timeout
        import time

        time.sleep(60)

    return task


def assert_no_hung_children():
    for child in multiprocessing.active_children():
        child.join(timeout=5)
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Pure pieces
# ----------------------------------------------------------------------

def test_backoff_schedule_is_deterministic_and_capped():
    assert backoff_schedule(0) == ()
    assert backoff_schedule(4, base=0.05, factor=2.0, cap=2.0) == (
        0.05,
        0.1,
        0.2,
        0.4,
    )
    assert backoff_schedule(8, base=0.5, factor=3.0, cap=2.0)[-1] == 2.0
    # Pure: same inputs, same schedule.
    assert backoff_schedule(5) == backoff_schedule(5)


def test_task_context_names_shard_and_explicit_cells():
    task = _ok(1)
    task.cell_context = "chaos 'dlv-outage' × 'strict'"
    assert task_context(task, 3) == "cell 3 [chaos 'dlv-outage' × 'strict']"
    assert "cell 0" in task_context(_ok(1), 0)


def test_exception_carries_cell_context():
    executor = FaultTolerantExecutor(retries=0, keep_going=False)
    failing = _boom("bad cell")
    failing.cell_context = "shard=2 seed=2017 config='bind'"
    with pytest.raises(TaskFailure) as info:
        executor.run([_ok(1), failing, _ok(3)])
    assert "shard=2 seed=2017" in str(info.value)
    assert "bad cell" in str(info.value)
    assert info.value.kind == "exception"


def test_keep_going_quarantines_and_returns_health():
    executor = FaultTolerantExecutor(retries=0, keep_going=True)
    failing = _boom("poison")
    results, quarantined, health = executor.run_with_quarantine(
        [_ok("a"), failing, _ok("c")]
    )
    assert results == ["a", None, "c"]
    assert [cell.index for cell in quarantined] == [1]
    assert quarantined[0].error == "exception"
    assert health.cells_ok == 2 and health.quarantined == 1
    # The protocol-compatible run() cannot return partial lists.
    with pytest.raises(QuarantineError):
        executor.run([_ok("a"), failing])


class TestFailurePickling:
    """Workers raise these in child processes; the parent re-raises
    them.  RuntimeError's default reduce replays the *rendered*
    message into the constructor, which would mangle the custom
    ``(context, detail)`` signatures — hence ``__reduce__``."""

    def test_task_failure_roundtrip(self):
        original = TaskFailure("cell 3 [shard 3/4]", "Boom\n  traceback")
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is TaskFailure
        assert clone.context == original.context
        assert clone.detail == original.detail
        assert str(clone) == str(original)

    def test_worker_lost_roundtrip(self):
        for exitcode in (-9, 1, None):
            original = WorkerLost("cell 0 [shard 0/2]", exitcode)
            clone = pickle.loads(pickle.dumps(original))
            assert type(clone) is WorkerLost
            assert clone.exitcode == exitcode
            assert clone.context == original.context
            assert str(clone) == str(original)

    def test_cell_timeout_roundtrip(self):
        original = CellTimeout("cell 1 [shard 1/2]", 12.5)
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is CellTimeout
        assert clone.timeout == 12.5
        assert str(clone) == str(original)

    def test_kind_survives(self):
        for original in (
            TaskFailure("c", "d"),
            WorkerLost("c", -9),
            CellTimeout("c", 1.0),
        ):
            clone = pickle.loads(pickle.dumps(original))
            assert clone.kind == original.kind


# ----------------------------------------------------------------------
# Process isolation: dead workers, timeouts, crash injection
# ----------------------------------------------------------------------

@fork_only
def test_killed_worker_raises_typed_worker_lost():
    executor = FaultTolerantExecutor(
        retries=0, keep_going=False, isolate=True
    )
    with pytest.raises(WorkerLost) as info:
        executor.run([_ok(1), _die(signal.SIGKILL)])
    assert info.value.kind == "worker-lost"
    assert info.value.exitcode == -signal.SIGKILL
    assert "killed by signal 9" in str(info.value)
    assert_no_hung_children()


@fork_only
def test_killed_worker_is_quarantined_in_keep_going_mode():
    executor = FaultTolerantExecutor(
        retries=0, keep_going=True, isolate=True
    )
    results, quarantined, health = executor.run_with_quarantine(
        [_ok("x"), _die(), _ok("y")]
    )
    assert results == ["x", None, "y"]
    assert quarantined[0].error == "worker-lost"
    assert health.worker_lost == 1
    assert_no_hung_children()


@fork_only
def test_hung_worker_is_terminated_on_timeout():
    executor = FaultTolerantExecutor(
        retries=0, keep_going=False, timeout=0.5
    )
    with pytest.raises(CellTimeout) as info:
        executor.run([_hang()])
    assert info.value.kind == "timeout"
    assert_no_hung_children()


@fork_only
def test_hung_worker_quarantined_keep_going():
    executor = FaultTolerantExecutor(
        retries=0, keep_going=True, timeout=0.5
    )
    results, quarantined, health = executor.run_with_quarantine(
        [_ok(7), _hang()]
    )
    assert results == [7, None]
    assert quarantined[0].error == "timeout"
    assert health.timeouts == 1
    assert_no_hung_children()


@fork_only
def test_crash_once_injection_succeeds_on_retry(tmp_path):
    injection = FaultInjection(
        marker_dir=str(tmp_path), crash_once_cells=frozenset({1})
    )
    tasks = [
        injection.wrap(index, task)
        for index, task in enumerate([_ok("a"), _ok("b"), _ok("c")])
    ]
    executor = FaultTolerantExecutor(
        retries=2, keep_going=True, isolate=True, backoff_base=0.01
    )
    results, quarantined, health = executor.run_with_quarantine(tasks)
    assert results == ["a", "b", "c"]
    assert quarantined == []
    assert health.worker_lost == 1
    assert health.retries == 1
    assert health.worker_restarts >= 1
    assert (tmp_path / "crash-once-1").exists()
    assert_no_hung_children()


@fork_only
def test_poison_cell_exhausts_retries_and_is_quarantined():
    executor = FaultTolerantExecutor(
        retries=2, keep_going=True, isolate=True, backoff_base=0.01
    )
    results, quarantined, health = executor.run_with_quarantine(
        [_ok(1), _die(signal.SIGKILL)]
    )
    assert results == [1, None]
    assert quarantined[0].attempts == 3  # initial try + 2 retries
    assert health.retries == 2
    assert health.worker_lost == 3
    assert_no_hung_children()


@fork_only
def test_parallel_run_preserves_task_order():
    executor = FaultTolerantExecutor(workers=4, retries=0)
    values = list(range(16))
    assert executor.run([_ok(v) for v in values]) == values
    assert_no_hung_children()


# ----------------------------------------------------------------------
# The fail-fast pool (no retries, no quarantine) and the helper
# entrypoint
# ----------------------------------------------------------------------

def test_multiprocessing_executor_surfaces_context():
    executor = FaultTolerantExecutor(workers=2, retries=0, keep_going=False)
    failing = _boom("from the pool")
    failing.cell_context = "shard=1 seed=2016"
    with pytest.raises(TaskFailure) as info:
        executor.run([_ok(1), failing, _ok(3)])
    assert "shard=1 seed=2016" in str(info.value)
    assert "from the pool" in str(info.value)
    assert_no_hung_children()


@fork_only
def test_multiprocessing_executor_killed_worker_does_not_hang():
    executor = FaultTolerantExecutor(workers=2, retries=0, keep_going=False)
    with pytest.raises(WorkerLost):
        executor.run([_ok(1), _die(), _ok(3)])
    assert_no_hung_children()


def test_run_tasks_fault_tolerant_keep_going_collects():
    results, quarantined, health = run_tasks_fault_tolerant(
        [_ok(1), _boom("nope"), _ok(3)], parallelism=1, retries=0
    )
    assert results == [1, None, 3]
    assert len(quarantined) == 1
    assert isinstance(health, ExecutorHealth)


def test_run_tasks_fault_tolerant_fail_fast():
    with pytest.raises(TaskFailure):
        run_tasks_fault_tolerant(
            [_ok(1), _boom("nope")], parallelism=1, retries=0, fail_fast=True
        )


def test_run_tasks_fault_tolerant_on_result_streams():
    seen = []
    run_tasks_fault_tolerant(
        [_ok("a"), _ok("b")],
        parallelism=1,
        on_result=lambda index, result: seen.append((index, result)),
    )
    assert sorted(seen) == [(0, "a"), (1, "b")]


# ----------------------------------------------------------------------
# Long-lived workers: one fork per slot, seed affinity, replacement
# ----------------------------------------------------------------------

def _pid(seed=None, barrier=None):
    """A task that reports the process it ran in.  With *barrier*, it
    returns only once the other worker runs a task too, so the two
    workers move through the task list in step."""

    def task():
        if barrier is not None:
            barrier.wait(timeout=30)
        return os.getpid()

    if seed is not None:
        task.spec = type("Spec", (), {"seed": seed, "index": 0})()
    return task


@fork_only
def test_two_workers_run_every_task_in_two_processes():
    executor = FaultTolerantExecutor(workers=2, retries=0)
    pids = executor.run([_pid() for _ in range(8)])
    assert len(set(pids)) == 2
    assert os.getpid() not in pids
    assert_no_hung_children()


@fork_only
def test_tasks_sharing_a_subseed_share_a_worker():
    barrier = multiprocessing.get_context("fork").Barrier(2)
    seeds = [11, 22] * 4
    executor = FaultTolerantExecutor(workers=2, retries=0)
    pids = executor.run([_pid(seed, barrier) for seed in seeds])
    by_seed = {}
    for seed, pid in zip(seeds, pids):
        by_seed.setdefault(seed, set()).add(pid)
    assert by_seed[11] == {pids[0]} and by_seed[22] == {pids[1]}
    assert pids[0] != pids[1]
    assert_no_hung_children()


@fork_only
def test_replacement_worker_finishes_after_a_lost_worker():
    executor = FaultTolerantExecutor(
        workers=1, retries=0, keep_going=True, isolate=True
    )
    results, quarantined, health = executor.run_with_quarantine(
        [_pid(), _pid(), _die(), _pid(), _pid()]
    )
    assert [cell.index for cell in quarantined] == [2]
    assert quarantined[0].error == "worker-lost"
    assert health.worker_lost == 1 and health.cells_ok == 4
    first, replacement = results[0], results[3]
    assert results[1] == first and results[4] == replacement
    assert first != replacement
    assert_no_hung_children()


@fork_only
def test_replacement_worker_finishes_after_a_timeout():
    executor = FaultTolerantExecutor(
        workers=1, retries=0, keep_going=True, timeout=0.5
    )
    results, quarantined, health = executor.run_with_quarantine(
        [_pid(), _hang(), _pid(), _pid()]
    )
    assert quarantined[0].index == 1 and quarantined[0].error == "timeout"
    assert health.timeouts == 1 and health.cells_ok == 3
    assert results[2] == results[3] != results[0]
    assert_no_hung_children()
