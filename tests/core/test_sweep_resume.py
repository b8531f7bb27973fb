"""The acceptance scenario for the crash-safe sweep store: kill a
sweep mid-run (self-SIGTERM after N commits, plus an injected worker
death and a corrupted cell on resume) and assert the resumed merge is
**byte-identical** to an uninterrupted serial run, with reused cells
> 0 and no hung worker processes left behind.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import sharded_leakage_sweep
from repro.core import (
    FaultInjection,
    FaultTolerantExecutor,
    ResultStore,
    SerialExecutor,
    SweepJournal,
    result_fingerprint,
    run_sharded_experiment,
    run_stored_sweep,
    standard_universe_factory,
    standard_workload,
)
from repro.resolver import correct_bind_config

DOMAINS = 12
FILLER = 150
SHARDS = 3
SEEDS = (2016, 2017, 2018)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _inputs(seed):
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=seed
    )
    names = standard_workload(DOMAINS, seed=seed).names(DOMAINS)
    return factory, names


def _reference(seed):
    """The uninterrupted serial run everything must match."""
    factory, names = _inputs(seed)
    return run_sharded_experiment(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=SHARDS,
        executor=SerialExecutor(),
    )


CHILD_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.core import ResultStore, run_stored_sweep
    from repro.core import standard_universe_factory, standard_workload
    from repro.resolver import correct_bind_config

    root, seed, abort_after = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    domains, filler, shards = {domains}, {filler}, {shards}
    factory = standard_universe_factory(
        domains, filler_count=filler, workload_seed=seed
    )
    names = standard_workload(domains, seed=seed).names(domains)
    store = ResultStore(root, abort_after_commits=abort_after)
    run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=shards,
        store=store,
    )
    # Reaching here means the SIGTERM injection never fired.
    sys.exit(7)
    """
).format(domains=DOMAINS, filler=FILLER, shards=SHARDS)


def _run_child_sweep(root, seed, abort_after):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(root), str(seed),
         str(abort_after)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_interrupted_sweep_resumes_byte_identical(tmp_path, seed):
    """SIGTERM mid-sweep → resume (with a corrupted cell and, where
    fork exists, an injected one-shot worker crash) → identical merge."""
    store_root = tmp_path / "store"

    # 1. A child process runs the stored sweep and self-SIGTERMs after
    #    its second cell commit — a genuine mid-run kill.
    child = _run_child_sweep(store_root, seed, abort_after=2)
    assert child.returncode == -signal.SIGTERM, (
        child.returncode,
        child.stdout,
        child.stderr,
    )
    committed = list(store_root.glob("*/*.cell"))
    assert len(committed) == 2  # died after the 2nd commit, before the 3rd

    # 2. One of the surviving cells gets silently corrupted on disk.
    victim = sorted(committed)[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    victim.write_bytes(bytes(blob))

    # 3. Resume in-process.  Where fork is available, also inject a
    #    one-shot worker crash into shard 2 — the child ran serially,
    #    so shard 2 was never committed and must re-run — making the
    #    resume exercise retry-after-worker-loss too.
    factory, names = _inputs(seed)
    injection = None
    if HAVE_FORK:
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        injection = FaultInjection(
            marker_dir=str(marker_dir), crash_once_cells=frozenset({2})
        )
    journal = SweepJournal(tmp_path / "journal.jsonl")
    outcome = run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=SHARDS,
        store=ResultStore(store_root),
        journal=journal,
        injection=injection,
        retries=2,
        backoff_base=0.01,
    )

    # 4. Byte-identity with the uninterrupted serial reference.
    outcome.raise_if_incomplete()
    assert outcome.quarantined == []
    assert result_fingerprint(outcome.result) == result_fingerprint(
        _reference(seed)
    )

    # 5. The resume reused the surviving cell, re-ran the corrupted and
    #    never-committed ones.
    assert outcome.cells_total == SHARDS
    assert outcome.cells_reused == 1
    assert outcome.cells_rerun == 2
    assert outcome.store_stats.corrupt_detected == 1
    if injection is not None:
        assert outcome.health.worker_lost == 1
        assert outcome.health.retries == 1

    # 6. The journal tells the story, and no workers were left behind.
    events = [event["event"] for event in journal.events()]
    assert events[0] == "sweep-start"
    assert events[-1] == "sweep-end"
    assert "reuse" in events and "corrupt" in events
    for child_process in multiprocessing.active_children():
        child_process.join(timeout=5)
    assert multiprocessing.active_children() == []


def test_second_resume_is_pure_reuse(tmp_path):
    """After a completed stored sweep, running again re-runs nothing
    and still fingerprints identically."""
    seed = SEEDS[0]
    store_root = tmp_path / "store"
    factory, names = _inputs(seed)

    def sweep():
        return run_stored_sweep(
            factory,
            correct_bind_config(),
            names,
            seed=seed,
            shards=SHARDS,
            store=ResultStore(store_root),
        )

    first = sweep()
    second = sweep()
    assert second.cells_reused == SHARDS and second.cells_rerun == 0
    assert result_fingerprint(second.result) == result_fingerprint(
        first.result
    )
    assert result_fingerprint(second.result) == result_fingerprint(
        _reference(seed)
    )


def test_stored_sweep_quarantine_keeps_going(tmp_path):
    """A poison cell (injected crash with no retries) is quarantined;
    the healthy cells complete and the outcome reports incompleteness
    instead of hanging or crashing the parent."""
    if not HAVE_FORK:
        pytest.skip("needs fork start method")
    seed = SEEDS[0]
    factory, names = _inputs(seed)
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    # Crash cell 1 on every attempt: pre-create the marker's namesake
    # via retries=0 so the single attempt dies and quarantine kicks in.
    injection = FaultInjection(
        marker_dir=str(marker_dir), crash_once_cells=frozenset({1})
    )
    outcome = run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=SHARDS,
        store=ResultStore(tmp_path / "store"),
        injection=injection,
        retries=0,
    )
    assert not outcome.complete
    assert len(outcome.quarantined) == 1
    assert outcome.quarantined[0].error == "worker-lost"
    assert outcome.cells_rerun == SHARDS - 1
    with pytest.raises(RuntimeError):
        outcome.raise_if_incomplete()
    # A follow-up run (the marker now exists, so the crash is spent)
    # heals the hole and matches the serial reference.
    healed = run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=SHARDS,
        store=ResultStore(tmp_path / "store"),
        injection=injection,
        retries=0,
    )
    assert healed.complete
    assert healed.cells_reused == SHARDS - 1
    assert result_fingerprint(healed.result) == result_fingerprint(
        _reference(seed)
    )


def _sizes_reference(sizes, shards, seed):
    """Per-size serial references of a multi-size stored sweep."""
    references = []
    for size in sizes:
        factory = standard_universe_factory(
            size, filler_count=FILLER, workload_seed=seed
        )
        references.append(
            result_fingerprint(
                run_sharded_experiment(
                    factory,
                    correct_bind_config(),
                    standard_workload(size, seed=seed).names(size),
                    seed=seed,
                    shards=shards,
                    executor=SerialExecutor(),
                )
            )
        )
    return references


def test_two_size_pooled_sweep_runs_once_and_resumes(tmp_path):
    """Both sizes' cells run in one 2-worker fan-out; every size keeps
    its own outcome, equal to the serial reference, and a second call
    reuses all four cells."""
    seed = SEEDS[0]
    sizes = (12, 30)

    def sweep():
        outcomes = []
        sharded_leakage_sweep(
            sizes=sizes,
            seed=seed,
            filler_count=FILLER,
            shards=2,
            parallelism=2,
            store=ResultStore(tmp_path / "store"),
            outcomes=outcomes,
        )
        return outcomes

    references = _sizes_reference(sizes, 2, seed)
    first = sweep()
    assert [outcome.cells_total for outcome in first] == [2, 2]
    assert sum(outcome.cells_rerun for outcome in first) == 4
    assert first[0].store_stats.commits == 4
    assert len(list((tmp_path / "store").glob("*/*.cell"))) == 4
    assert [result_fingerprint(o.result) for o in first] == references
    second = sweep()
    assert [outcome.cells_reused for outcome in second] == [2, 2]
    assert sum(outcome.cells_rerun for outcome in second) == 0
    assert [result_fingerprint(o.result) for o in second] == references
    for child_process in multiprocessing.active_children():
        child_process.join(timeout=5)
    assert multiprocessing.active_children() == []


def test_storeless_sweep_runs_every_size_in_one_fan_out(
    tmp_path, monkeypatch
):
    """Without a store, a two-size sweep runs on the same engine as a
    stored one: both sizes' four cells in one executor run, one outcome
    per size, and the points a fresh store's sweep gives."""
    seed = SEEDS[0]
    sizes = (12, 30)
    runs = []
    original = FaultTolerantExecutor.run_with_quarantine

    def counted(self, tasks, on_result=None):
        runs.append(len(tasks))
        return original(self, tasks, on_result=on_result)

    monkeypatch.setattr(FaultTolerantExecutor, "run_with_quarantine", counted)
    outcomes = []
    points = sharded_leakage_sweep(
        sizes=sizes,
        seed=seed,
        filler_count=FILLER,
        shards=2,
        parallelism=2,
        outcomes=outcomes,
    )
    assert runs == [4]
    assert [outcome.cells_rerun for outcome in outcomes] == [2, 2]
    assert all(outcome.store_stats is None for outcome in outcomes)
    stored = sharded_leakage_sweep(
        sizes=sizes,
        seed=seed,
        filler_count=FILLER,
        shards=2,
        parallelism=2,
        store=ResultStore(tmp_path / "store"),
    )
    assert points == stored


POOLED_CHILD_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.core import ResultStore, run_stored_sweep
    from repro.core import standard_universe_factory, standard_workload
    from repro.resolver import correct_bind_config

    root, seed, abort_after = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    domains, filler, shards = {domains}, {filler}, {shards}
    factory = standard_universe_factory(
        domains, filler_count=filler, workload_seed=seed
    )
    names = standard_workload(domains, seed=seed).names(domains)
    run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=shards,
        parallelism=2,
        store=ResultStore(root, abort_after_commits=abort_after),
    )
    sys.exit(7)
    """
).format(domains=DOMAINS, filler=FILLER, shards=SHARDS)


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
def test_pooled_sweep_killed_after_commits_resumes_byte_identical(tmp_path):
    """A 2-worker sweep that SIGTERMs its coordinator after the second
    commit counted keeps every cell its workers committed (two, or
    three if a worker finished one first), and the resume matches the
    serial reference."""
    seed = SEEDS[0]
    store_root = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", POOLED_CHILD_SCRIPT, str(store_root),
         str(seed), "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == -signal.SIGTERM, (
        child.returncode,
        child.stdout,
        child.stderr,
    )
    committed = len(list(store_root.glob("*/*.cell")))
    assert committed >= 2
    factory, names = _inputs(seed)
    outcome = run_stored_sweep(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=SHARDS,
        store=ResultStore(store_root),
    )
    assert outcome.cells_reused == committed
    assert outcome.cells_reused + outcome.cells_rerun == SHARDS
    assert result_fingerprint(outcome.result) == result_fingerprint(
        _reference(seed)
    )


HASH_SEED_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.core import ResultStore, run_stored_sweep
    from repro.core import standard_universe_factory, standard_workload
    from repro.resolver import correct_bind_config

    factory = standard_universe_factory(
        30, filler_count=150, workload_seed=2016
    )
    names = standard_workload(30, seed=2016).names(30)
    run_stored_sweep(
        factory, correct_bind_config(), names, seed=2016, shards=1,
        store=ResultStore(sys.argv[1]),
    )
    """
)


def test_cell_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The same cell committed by two interpreters with different
    string-hash seeds is the same file, byte for byte."""
    cells = []
    for hash_seed in ("1", "2"):
        root = tmp_path / f"store-{hash_seed}"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = hash_seed
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, str(root)],
            env=env,
            check=True,
            timeout=120,
        )
        (cell,) = root.glob("*/*.cell")
        cells.append((cell.name, cell.read_bytes()))
    assert cells[0][0] == cells[1][0]
    assert cells[0][1] == cells[1][1]


HISTORY_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro.analysis import sharded_leakage_sweep
    from repro.core import ResultStore

    sharded_leakage_sweep(
        sizes=(30, 60), seed=2016, filler_count=2000, shards=2,
        parallelism=int(sys.argv[2]), store=ResultStore(sys.argv[1]),
    )
    """
)


def test_cell_bytes_do_not_depend_on_the_process_history(tmp_path):
    """A two-size sweep run serially (every cell after the ones before
    it, in one process) and on two workers (each cell after those of
    its sub-seed) commits the same files, byte for byte."""
    stores = []
    for parallelism in ("1", "2"):
        root = tmp_path / f"store-{parallelism}"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", HISTORY_SCRIPT, str(root), parallelism],
            env=env,
            check=True,
            timeout=300,
        )
        stores.append(
            {cell.name: cell.read_bytes() for cell in root.glob("*/*.cell")}
        )
    assert len(stores[0]) == 4
    assert stores[0] == stores[1]
