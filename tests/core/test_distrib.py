"""The distributed sweep layer: lease discipline, dead-worker
takeover, fencing, and the chaos acceptance scenario — 3 workers drain
one sweep, one is SIGKILLed mid-cell (its lease taken over after TTL
expiry), one lease file is corrupted, and the merged result is still
byte-identical to the serial reference across 3 seeds, with zero
leaked lease files and no hung children.
"""

import dataclasses
import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import (
    Fenced,
    ResultStore,
    SerialExecutor,
    SweepManifest,
    WorkerFault,
    claim_cell,
    collect_sweep,
    drain_board,
    load_sweep_manifest,
    release_lease,
    renew_lease,
    result_fingerprint,
    run_sharded_experiment,
    run_worker,
    spawn_worker_process,
    standard_universe_factory,
    standard_workload,
    write_sweep_manifest,
)
from repro.core.distrib import Lease, SweepBoard, read_lease, read_marker
from repro.core.metrics import MetricsRegistry
from repro.resolver import correct_bind_config

DOMAINS = 12
FILLER = 150
SHARDS = 3
SEEDS = (2016, 2017, 2018)


def _reference(seed):
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=seed
    )
    names = standard_workload(DOMAINS, seed=seed).names(DOMAINS)
    return run_sharded_experiment(
        factory,
        correct_bind_config(),
        names,
        seed=seed,
        shards=SHARDS,
        executor=SerialExecutor(),
    )


def _manifest(seed):
    return SweepManifest(
        sizes=(DOMAINS,), filler_count=FILLER, seed=seed, shards=SHARDS
    )


def _no_hung_children():
    for child in multiprocessing.active_children():
        child.join(timeout=5)
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Lease primitives
# ----------------------------------------------------------------------

class TestLease:
    def test_fresh_claim_and_mutual_exclusion(self, tmp_path):
        path = tmp_path / "cell.lease"
        first = claim_cell(path, "cell", "alice", ttl=10.0)
        assert first is not None and first.how == "fresh"
        assert first.lease.token == 1 and first.lease.owner == "alice"
        # A live lease repels every other claimant.
        assert claim_cell(path, "cell", "bob", ttl=10.0) is None

    def test_takeover_after_expiry_bumps_fencing_token(self, tmp_path):
        clock = iter([100.0, 200.0, 200.0, 200.0]).__next__
        path = tmp_path / "cell.lease"
        first = claim_cell(path, "cell", "alice", ttl=10.0, clock=clock)
        taken = claim_cell(path, "cell", "bob", ttl=10.0, clock=clock)
        assert taken is not None and taken.how == "takeover"
        assert taken.lease.token == first.lease.token + 1
        assert taken.lease.takeovers == 1
        assert taken.lease.nonce != first.lease.nonce

    def test_corrupt_lease_is_taken_over(self, tmp_path):
        path = tmp_path / "cell.lease"
        path.write_text("{this is not a lease")
        taken = claim_cell(path, "cell", "bob", ttl=10.0)
        assert taken is not None and taken.how == "corrupt"
        assert taken.lease.token == 1 and taken.lease.takeovers == 1

    def test_renew_refreshes_heartbeat(self, tmp_path):
        path = tmp_path / "cell.lease"
        claim = claim_cell(
            path, "cell", "alice", ttl=10.0, clock=lambda: 100.0
        )
        renewed = renew_lease(path, claim.lease, clock=lambda: 105.0)
        assert renewed.heartbeat == 105.0
        on_disk = read_lease(path)
        assert on_disk.heartbeat == 105.0
        assert on_disk.same_claim(claim.lease)

    def test_renew_after_takeover_is_fenced(self, tmp_path):
        clock = iter([100.0, 200.0, 200.0, 200.0]).__next__
        path = tmp_path / "cell.lease"
        old = claim_cell(path, "cell", "alice", ttl=10.0, clock=clock)
        claim_cell(path, "cell", "bob", ttl=10.0, clock=clock)
        with pytest.raises(Fenced):
            renew_lease(path, old.lease, clock=lambda: 201.0)

    def test_release_only_own_claim(self, tmp_path):
        clock = iter([100.0, 200.0, 200.0, 200.0]).__next__
        path = tmp_path / "cell.lease"
        old = claim_cell(path, "cell", "alice", ttl=10.0, clock=clock)
        new = claim_cell(path, "cell", "bob", ttl=10.0, clock=clock)
        # The fenced-out owner cannot release the new owner's claim...
        assert release_lease(path, old.lease) is False
        assert path.exists()
        # ...the real owner can.
        assert release_lease(path, new.lease) is True
        assert not path.exists()

    def test_lease_json_round_trip(self, tmp_path):
        lease = Lease(
            cell="abc",
            owner="w0",
            nonce="w0:1:1",
            token=3,
            ttl=5.0,
            acquired=1.0,
            heartbeat=2.0,
            takeovers=2,
        )
        assert Lease.from_json(lease.to_json()) == lease
        assert lease.expired(now=7.1) and not lease.expired(now=6.9)

    def test_racing_takeover_has_exactly_one_winner(self, tmp_path):
        """More threads than cores race ``claim_cell`` on one expired
        lease, switching every microsecond, for a bounded time.  Each
        round exactly one takes it over with the next token; none finds
        the path empty mid-takeover and claims the cell ``fresh``."""
        contenders = 2 * (os.cpu_count() or 1) + 2
        path = tmp_path / "cell.lease"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            token = 0
            while token < 3 or time.monotonic() < deadline:
                token += 1
                dead = Lease(
                    cell="cell",
                    owner="dead",
                    nonce=f"dead:{token}",
                    token=token,
                    ttl=1.0,
                    acquired=0.0,
                    heartbeat=0.0,
                )
                path.write_text(dead.to_json())
                barrier = threading.Barrier(contenders)
                outcomes = []

                def contend(index):
                    barrier.wait()
                    try:
                        outcomes.append(
                            claim_cell(path, "cell", f"c{index}", ttl=60.0)
                        )
                    except Exception as exc:  # reported by the assert
                        outcomes.append(exc)

                threads = [
                    threading.Thread(target=contend, args=(index,))
                    for index in range(contenders)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                won = [outcome for outcome in outcomes if outcome is not None]
                assert [getattr(claim, "how", claim) for claim in won] == [
                    "takeover"
                ], f"round {token}"
                assert won[0].lease.token == token + 1
                assert read_lease(path).same_claim(won[0].lease)
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# One lease worker's drain: quarantine and metrics
# ----------------------------------------------------------------------

class TestDrainBoard:
    def test_poison_task_quarantined_not_fatal(self, tmp_path):
        """A cell that raises on every attempt is quarantined with a
        marker every worker sees; the healthy cells still commit."""

        def boom():
            raise ValueError("poison")

        store = ResultStore(tmp_path / "store")
        cells = _manifest(SEEDS[0]).cells()
        poison = cells[1] = dataclasses.replace(cells[1], task=boom)
        retries = 1
        report = drain_board(
            SweepBoard(store, cells), "w0", ttl=2.0, retries=retries
        )
        marker = read_marker(store.quarantine_path_for(poison.key.digest()))
        assert marker["error"] == "exception"
        assert marker["attempts"] == retries + 1
        assert report.stats.quarantined == 1
        for cell in cells:
            committed = store.path_for(cell.key.digest()).exists()
            assert committed == (cell is not poison)
        assert list((tmp_path / "store").glob("*/*.lease")) == []

    def test_metrics_emission_vocabulary(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        write_sweep_manifest(store, _manifest(SEEDS[0]))
        metrics = MetricsRegistry()
        run_worker(tmp_path / "store", "w0", ttl=2.0, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["distrib.claims"] >= 3
        assert counters["distrib.committed"] == 3
        assert "executor.lease_claims" in counters
        assert "executor.lease_takeovers" in counters


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------

class TestManifest:
    def test_round_trip_and_idempotent_write(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        manifest = _manifest(SEEDS[0])
        path = write_sweep_manifest(store, manifest)
        assert path.exists()
        # Idempotent for the identical manifest...
        write_sweep_manifest(store, manifest)
        assert load_sweep_manifest(store) == manifest
        # ...refused for a different one.
        with pytest.raises(Exception):
            write_sweep_manifest(store, _manifest(SEEDS[1]))

    def test_unknown_config_name_is_refused(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        bad = SweepManifest(
            sizes=(4,), filler_count=10, config_name="no_such_config"
        )
        write_sweep_manifest(store, bad)
        with pytest.raises(Exception):
            load_sweep_manifest(store).config()

    def test_cells_are_deterministic_across_processes(self, tmp_path):
        """Two independent derivations of the cell set agree digest for
        digest — the property multi-host claiming rests on."""
        manifest = _manifest(SEEDS[0])
        once = [cell.key.digest() for cell in manifest.cells()]
        again = [cell.key.digest() for cell in manifest.cells()]
        assert once == again and len(once) == SHARDS

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(Exception, match="manifest"):
            load_sweep_manifest(store)


# ----------------------------------------------------------------------
# Workers over the shared store
# ----------------------------------------------------------------------

class TestSweepWorkers:
    def test_single_worker_drains_and_matches_reference(self, tmp_path):
        seed = SEEDS[0]
        store = ResultStore(tmp_path / "store")
        write_sweep_manifest(store, _manifest(seed))
        report = run_worker(tmp_path / "store", "w0", ttl=5.0)
        assert report.stats.committed == SHARDS
        outcome = collect_sweep(store, run_missing=False)
        assert outcome.cells_reused == SHARDS
        assert result_fingerprint(outcome.result) == result_fingerprint(
            _reference(seed)
        )

    def test_second_worker_finds_nothing_to_do(self, tmp_path):
        seed = SEEDS[0]
        store = ResultStore(tmp_path / "store")
        write_sweep_manifest(store, _manifest(seed))
        run_worker(tmp_path / "store", "w0", ttl=5.0)
        report = run_worker(tmp_path / "store", "w1", ttl=5.0)
        assert report.stats.committed == 0
        assert report.stats.claims == 0

    def test_zombie_commit_is_fenced_no_op(self, tmp_path):
        """A worker that stalls past its TTL loses the cell; its late
        commit is skipped, and a fresh drain completes the sweep."""
        seed = SEEDS[0]
        store = ResultStore(tmp_path / "store")
        write_sweep_manifest(store, _manifest(seed))
        manifest = load_sweep_manifest(store)
        cell = manifest.cells()[0]
        digest = cell.key.digest()
        lease_path = store.lease_path_for(digest)

        # The zombie claims, then silently loses the lease to a peer.
        zombie = claim_cell(lease_path, digest, "zombie", ttl=0.1)
        time.sleep(0.25)
        peer = claim_cell(lease_path, digest, "peer", ttl=30.0)
        assert peer is not None and peer.how == "takeover"

        # The zombie's own drain pass must now detect the fence.
        with pytest.raises(Fenced):
            renew_lease(lease_path, zombie.lease)
        assert release_lease(lease_path, zombie.lease) is False

        # The peer's claim still stands and the board drains normally.
        assert read_lease(lease_path).same_claim(peer.lease)
        release_lease(lease_path, peer.lease)
        report = run_worker(tmp_path / "store", "w1", ttl=5.0)
        assert report.stats.committed == SHARDS

    def test_stalled_worker_end_to_end_fence(self, tmp_path):
        """WorkerFault stall knob: the worker holds a lease without
        heartbeating for longer than the TTL while a live peer drains
        everything — the stalled worker's commit must be fenced or a
        detected duplicate, never a conflict."""
        seed = SEEDS[0]
        store = ResultStore(tmp_path / "store")
        write_sweep_manifest(store, _manifest(seed))

        peer = spawn_worker_process(
            tmp_path / "store", "peer", ttl=0.4, poll_interval=0.05
        )
        try:
            report = run_worker(
                tmp_path / "store",
                "zombie",
                ttl=0.4,
                fault=WorkerFault(stall_after_claims=1, stall_seconds=1.5),
            )
        finally:
            peer.wait(timeout=120)
            peer.stdout.close()
            peer.stderr.close()
        assert peer.returncode == 0
        assert report.stats.conflicts == 0
        outcome = collect_sweep(store, run_missing=False)
        assert outcome.cells_reused == SHARDS
        assert result_fingerprint(outcome.result) == result_fingerprint(
            _reference(seed)
        )
        assert list(Path(tmp_path / "store").glob("*/*.lease")) == []

    def test_takeover_ceiling_quarantines_poison_cell(self, tmp_path):
        seed = SEEDS[0]
        store = ResultStore(tmp_path / "store")
        write_sweep_manifest(store, _manifest(seed))
        manifest = load_sweep_manifest(store)
        victim = manifest.cells()[1]
        digest = victim.key.digest()
        lease_path = store.lease_path_for(digest)
        # Fake a cell that has already churned through its owners: an
        # expired lease carrying takeovers at the ceiling.
        dead = Lease(
            cell=digest,
            owner="ghost",
            nonce="ghost:1:1",
            token=9,
            ttl=0.01,
            acquired=0.0,
            heartbeat=0.0,
            takeovers=3,
        )
        lease_path.parent.mkdir(parents=True, exist_ok=True)
        lease_path.write_text(dead.to_json())

        report = run_worker(tmp_path / "store", "w0", ttl=5.0, max_takeovers=3)
        assert report.stats.quarantined == 1
        assert report.quarantined[0]["error"] == "takeover-limit"
        # The healthy cells completed; the poison cell is marked for
        # the whole fleet and surfaced by the collector.
        assert report.stats.committed == SHARDS - 1
        outcome = collect_sweep(store, run_missing=False)
        assert len(outcome.quarantined) == 1
        assert not outcome.complete
        # A later worker skips it instead of ping-ponging.
        again = run_worker(tmp_path / "store", "w1", ttl=5.0, max_takeovers=3)
        assert again.stats.claims == 0

    def test_coordinator_fallback_heals_dead_fleet(self, tmp_path):
        """collect_sweep(run_missing=True) finishes cells no worker
        drained — the coordinator's degrade-to-local path."""
        seed = SEEDS[0]
        store = ResultStore(tmp_path / "store")
        write_sweep_manifest(store, _manifest(seed))
        outcome = collect_sweep(store, run_missing=True)
        assert outcome.cells_rerun == SHARDS and outcome.cells_reused == 0
        assert result_fingerprint(outcome.result) == result_fingerprint(
            _reference(seed)
        )


# ----------------------------------------------------------------------
# The chaos acceptance scenario
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_distributed_sweep_byte_identical(tmp_path, seed):
    """3 workers, one SIGKILLed mid-cell (lease orphaned, taken over
    after TTL expiry), one corrupted lease file — merged result
    byte-identical to the serial reference, zero leaked lease files,
    no duplicate side effects, no hung children."""
    store_root = tmp_path / "store"
    store = ResultStore(store_root)
    manifest = _manifest(seed)
    write_sweep_manifest(store, manifest)
    cells = manifest.cells()
    digests = [cell.key.digest() for cell in cells]

    # 1. The doomed worker runs alone and is SIGKILLed right after its
    #    first claim — mid-cell, lease held, heartbeat silenced.
    doomed = spawn_worker_process(
        store_root,
        "doomed",
        ttl=0.5,
        poll_interval=0.05,
        extra_args=["--die-after-claims", "1"],
    )
    doomed.wait(timeout=120)
    doomed.stdout.close()
    doomed.stderr.close()
    assert doomed.returncode == -signal.SIGKILL
    orphaned = [
        digest
        for digest in digests
        if store.lease_path_for(digest).exists()
    ]
    assert len(orphaned) == 1  # exactly one cell left mid-claim
    assert not store.path_for(orphaned[0]).exists()  # and uncommitted

    # 2. Another cell's lease file is corrupted on disk (torn write /
    #    bit-rot on the shared filesystem).
    corrupt_digest = next(d for d in digests if d != orphaned[0])
    corrupt_path = store.lease_path_for(corrupt_digest)
    corrupt_path.parent.mkdir(parents=True, exist_ok=True)
    corrupt_path.write_bytes(b"\x00\xffgarbage lease\x13")

    # 3. Two survivors drain the board: the orphaned lease must be
    #    taken over after TTL expiry, the corrupt one immediately.
    survivors = [
        spawn_worker_process(
            store_root, worker_id, ttl=0.5, poll_interval=0.05
        )
        for worker_id in ("s1", "s2")
    ]
    reports = {}
    for process, worker_id in zip(survivors, ("s1", "s2")):
        process.wait(timeout=120)
        stdout = process.stdout.read()
        process.stdout.close()
        process.stderr.close()
        assert process.returncode == 0, (worker_id, stdout)

    # 4. Byte-identity with the uninterrupted serial reference.
    outcome = collect_sweep(store, run_missing=False)
    assert outcome.quarantined == []
    assert outcome.cells_reused == SHARDS  # every cell was committed
    assert result_fingerprint(outcome.result) == result_fingerprint(
        _reference(seed)
    )

    # 5. Zero leaked lease files (and no takeover-rename remnants),
    #    and the journal records the takeover of the orphaned cell.
    assert list(store_root.glob("*/*.lease")) == []
    assert list(store_root.glob("*/*.lease.stale.*")) == []
    events = store.journal().events()
    claims_by_cell = {}
    for event in events:
        if event["event"] == "claim":
            claims_by_cell.setdefault(event["cell"], []).append(event)
    # The corrupt lease was detected and taken over.
    assert any(
        event["how"] == "corrupt"
        for event in claims_by_cell[corrupt_digest]
    )
    # The orphaned cell: the doomed worker claimed it first, and a
    # survivor claimed it after TTL expiry — recorded as a takeover,
    # or as a fresh claim when both survivors raced the rename
    # arbitration (the loser's O_EXCL lands in the winner's window).
    orphan_claims = claims_by_cell[orphaned[0]]
    assert orphan_claims[0]["worker"] == "doomed"
    assert any(
        event["worker"] in ("s1", "s2") for event in orphan_claims[1:]
    )
    # No duplicate side effects: every commit event is for a distinct
    # cell (racing re-commits surface as "duplicate" events instead).
    committed_cells = [
        event["cell"] for event in events if event["event"] == "commit"
    ]
    assert len(committed_cells) == len(set(committed_cells))

    # 6. No hung children.
    _no_hung_children()


def test_run_distributed_sweep_coordinator(tmp_path):
    """The repro sweep --distributed path: coordinator writes the
    manifest, spawns workers, merges byte-identically."""
    from repro.core.distrib import run_distributed_sweep

    seed = SEEDS[0]
    outcome = run_distributed_sweep(
        tmp_path / "store",
        workers=2,
        sizes=(DOMAINS,),
        filler_count=FILLER,
        seed=seed,
        shards=SHARDS,
        ttl=5.0,
        poll_interval=0.05,
    )
    assert outcome.complete
    assert set(outcome.worker_exits.values()) == {0}
    assert outcome.cells_reused + outcome.cells_rerun == SHARDS
    assert result_fingerprint(outcome.result) == result_fingerprint(
        _reference(seed)
    )
    assert list((tmp_path / "store").glob("*/*.lease")) == []
    _no_hung_children()
