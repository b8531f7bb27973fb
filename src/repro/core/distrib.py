"""Distributed sweep workers: lease/claim discipline over the store.

PR 6 made the sweep store crash-safe for *one* host: verified reads,
idempotent atomic commits, resume.  This module adds the other half
the ROADMAP names — a claim/lease discipline so **multiple worker
processes (or hosts sharing the store directory) drain one sweep's
cell set** without ever running the same cell twice on purpose, and
without losing a cell to a dead worker:

* a **lease file** (``<digest>.lease`` beside the cell) is created
  with ``O_EXCL`` — the filesystem arbitrates exactly one claimant —
  and carries the owner id, a **fencing token** (serial + unique
  nonce), and a **heartbeat** the owner refreshes from a background
  thread while the cell runs;
* workers **skip committed cells**, claim uncommitted ones, and **take
  over** cells whose lease heartbeat has expired: ``kill -9`` a worker
  mid-cell and a peer finishes its cell after the TTL.  Takeover is
  arbitrated by an exclusive ``flock`` on the lease directory: the
  winner re-reads the expired lease and replaces it, in one
  ``os.replace``, with a lease carrying a bumped token, so the lease
  path is never empty mid-takeover;
* a **zombie** (a worker that stalled past its TTL and lost its lease)
  detects the foreign fencing token before and after committing: its
  late commit is a *detected no-op* — the store's idempotent commits
  plus fingerprint comparison turn a racing duplicate into an asserted
  byte-identical re-commit, never a conflict;
* a **corrupt lease file** (torn write, bit-flip) reads as expired and
  is taken over immediately — a broken claim can delay a cell, never
  wedge the sweep;
* a cell that fails every local retry — or whose claim has been taken
  over more than ``max_takeovers`` times (it keeps killing its owners)
  — is **quarantined** via a marker file all workers see, so poison
  cells are skipped fleet-wide instead of ping-ponging between hosts.

Two entry points sit on top of the one drain loop, both over the
shared :class:`~.store.ResultStore` (the lease workers are not an
``Executor``: they drain a store's cell set, not a task list):

* :func:`run_worker` — one independent worker process joining a sweep
  described by the store's **manifest** (``python -m repro work
  --store DIR --worker-id ID``), the multi-host path;
* :func:`run_distributed_sweep` — the coordinator: writes the
  manifest, spawns N local workers, monitors them, and merges — with
  a local fallback that finishes any cell the whole fleet failed to
  drain, so a dead fleet degrades to a slow sweep, never a lost one.

Everything operational (claims, takeovers, renewals, fenced commits,
duplicates) is counted in :class:`DistribStats` and emitted as
``distrib.*`` / ``executor.lease_*`` metrics and journal events; none
of it touches the merged :class:`~.experiment.ExperimentResult`, which
stays byte-identical to the serial reference — the same contract the
executors in :mod:`repro.core.parallel` honour.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..resolver import (
    ResolverConfig,
    broken_anchor_bind_config,
    correct_bind_config,
)
from .experiment import ExperimentResult
from .parallel import (
    QuarantinedCell,
    backoff_schedule,
    merge_shard_results,
)
from .store import (
    ResultStore,
    StoreError,
    SweepCell,
    SweepJournal,
    _durable_write,
    current_code_version,
    fingerprint_digest,
)

#: Lease/quarantine envelope schema version.
LEASE_FORMAT = 1
#: Default production lease TTL; tests and the smoke job shrink it.
DEFAULT_LEASE_TTL = 30.0
#: A cell whose lease has been taken over this many times is poison:
#: it keeps killing (or outliving) its owners.
DEFAULT_MAX_TAKEOVERS = 3

#: Named resolver-config builders a sweep manifest may reference.  A
#: manifest travels between hosts as JSON, so it names a constructor
#: from this allowlist instead of pickling arbitrary config objects.
CONFIG_BUILDERS: Dict[str, Callable[..., ResolverConfig]] = {
    "correct_bind_config": correct_bind_config,
    "broken_anchor_bind_config": broken_anchor_bind_config,
}

_NONCE_COUNTER = itertools.count(1)


class LeaseError(Exception):
    """A lease operation failed structurally (not a lost race)."""


class Fenced(Exception):
    """The lease now carries a foreign fencing token: this worker was
    presumed dead and its cell taken over.  Its pending commit must be
    treated as a detected no-op."""


# ----------------------------------------------------------------------
# Lease files
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Lease:
    """One claim on one cell, as serialised into its ``.lease`` file.

    ``token`` is the fencing serial (1 on a fresh claim, bumped on
    every takeover); ``nonce`` makes the fence unambiguous even when a
    corrupt lease forced the serial to restart — fencing compares
    ``(token, nonce)``, so two claims can never be confused.
    """

    cell: str
    owner: str
    nonce: str
    token: int
    ttl: float
    acquired: float
    heartbeat: float
    takeovers: int = 0

    def expired(self, now: float) -> bool:
        return now - self.heartbeat > self.ttl

    def same_claim(self, other: "Lease") -> bool:
        return self.token == other.token and self.nonce == other.nonce

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["format"] = LEASE_FORMAT
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Lease":
        payload = json.loads(text)
        if payload.pop("format", None) != LEASE_FORMAT:
            raise LeaseError("unknown lease format")
        return cls(**payload)


def _new_nonce(owner: str) -> str:
    return f"{owner}:{os.getpid()}:{next(_NONCE_COUNTER)}"


def read_lease(path: Path) -> Optional[Lease]:
    """The lease at *path*, or ``None`` when the file exists but is
    corrupt (torn write, bit-flip, wrong format).  Raises
    ``FileNotFoundError`` when there is no lease at all — the two
    conditions are handled differently by claimants."""
    raw = Path(path).read_bytes()
    try:
        return Lease.from_json(raw.decode("utf-8"))
    except Exception:
        return None


@contextlib.contextmanager
def _lease_lock(path: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on the lease's directory.

    Takeover, renewal and release each read a lease, check it and
    rewrite or remove it; under this lock no other contender acts
    between the read and the write.  Fresh claims need no lock: the
    exclusive link arbitrates them.  The lock is not reentrant.
    """
    descriptor = os.open(Path(path).parent, os.O_RDONLY)
    try:
        # Released when the descriptor closes.
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        os.close(descriptor)


@dataclasses.dataclass
class ClaimResult:
    """What :func:`claim_cell` got: the lease held by this worker plus
    how it was obtained (``fresh`` / ``takeover`` / ``corrupt``)."""

    lease: Lease
    how: str


def claim_cell(
    path: Path,
    cell: str,
    owner: str,
    ttl: float,
    clock: Callable[[], float] = time.time,
) -> Optional[ClaimResult]:
    """Try to claim *cell* by creating (or taking over) its lease.

    * no lease → ``O_EXCL`` create, token 1 (``fresh``);
    * live lease → ``None`` (someone else owns the cell);
    * expired lease → under :func:`_lease_lock`, re-read it and, if it
      is still expired, replace it in one ``os.replace`` with a lease
      carrying ``token+1`` (``takeover``).  Exactly one contender
      wins, and the path always holds the old lease or the new one,
      so no peer can find it empty and claim the cell ``fresh``;
    * corrupt lease → the same arbitration, token restarts at 1 but
      the nonce keeps the fence unambiguous (``corrupt``).
    """
    path = Path(path)
    now = clock()
    fresh = Lease(
        cell=cell,
        owner=owner,
        nonce=_new_nonce(owner),
        token=1,
        ttl=ttl,
        acquired=now,
        heartbeat=now,
    )
    # The exclusive write is the claim arbitration.  It links the lease
    # into place whole, so no peer finds a fresh claim empty, which
    # would read as corrupt and invite an immediate bogus takeover.
    if _durable_write(path, fresh.to_json().encode("utf-8"), exclusive=True):
        return ClaimResult(fresh, "fresh")
    try:
        current = read_lease(path)
    except FileNotFoundError:
        # Raced with a release; the rescan loop will retry.
        return None
    if current is not None and not current.expired(now):
        return None
    # Dead or corrupt lease: check it again under the lock, since
    # another contender may have taken it over since we read it.
    with _lease_lock(path):
        try:
            current = read_lease(path)
        except FileNotFoundError:
            return None
        if current is not None and not current.expired(now):
            return None  # another taker won
        taken = dataclasses.replace(
            fresh,
            nonce=_new_nonce(owner),
            token=(current.token + 1) if current is not None else 1,
            takeovers=(current.takeovers + 1) if current is not None else 1,
            acquired=clock(),
            heartbeat=clock(),
        )
        _durable_write(path, taken.to_json().encode("utf-8"))
    return ClaimResult(taken, "takeover" if current is not None else "corrupt")


def renew_lease(
    path: Path, lease: Lease, clock: Callable[[], float] = time.time
) -> Lease:
    """Refresh the heartbeat of a lease this worker holds.

    Verifies the fence first: if the file is gone or carries a foreign
    ``(token, nonce)``, the cell was taken over and :class:`Fenced`
    is raised — the worker must treat its in-flight result as a
    detected duplicate, and must not touch the new owner's lease.
    """
    try:
        with _lease_lock(path):
            current = read_lease(path)
            if current is None or not lease.same_claim(current):
                raise Fenced(f"lease for {lease.cell} was taken over")
            renewed = dataclasses.replace(lease, heartbeat=clock())
            _durable_write(Path(path), renewed.to_json().encode("utf-8"))
    except FileNotFoundError:
        raise Fenced(f"lease for {lease.cell} disappeared")
    return renewed


def release_lease(path: Path, lease: Lease) -> bool:
    """Remove the lease if this worker still holds it.  Returns False
    (and leaves the file alone) when the claim was fenced away."""
    try:
        with _lease_lock(path):
            current = read_lease(path)
            if current is None or not lease.same_claim(current):
                return False
            os.unlink(path)
    except OSError:
        return False
    return True


class _Heartbeat:
    """Background lease renewal while a cell runs.

    Renews every ``ttl / 4``; the first :class:`Fenced` stops the
    thread and latches :attr:`fenced` so the worker can detect, before
    committing, that it became a zombie.  A SIGKILLed worker's
    heartbeat dies with it — which is exactly how peers learn the cell
    is orphaned.
    """

    def __init__(
        self,
        path: Path,
        lease: Lease,
        clock: Callable[[], float] = time.time,
    ):
        self.path = Path(path)
        self.lease = lease
        self.clock = clock
        self.renewals = 0
        self.fenced = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-{lease.cell[:8]}", daemon=True
        )

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        interval = max(self.lease.ttl / 4.0, 0.01)
        while not self._stop.wait(interval):
            try:
                self.lease = renew_lease(self.path, self.lease, self.clock)
                self.renewals += 1
            except Fenced:
                self.fenced = True
                return
            except OSError:  # pragma: no cover - transient fs trouble
                continue

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Stats and faults
# ----------------------------------------------------------------------

@dataclasses.dataclass
class DistribStats:
    """Operational counters for lease-coordinated work.  Emitted as
    ``distrib.*`` (and the lease subset as ``executor.lease_*``); never
    part of merged results."""

    claims: int = 0
    takeovers: int = 0
    corrupt_leases: int = 0
    renewals: int = 0
    fenced: int = 0
    released: int = 0
    committed: int = 0
    duplicates: int = 0
    conflicts: int = 0
    skipped_done: int = 0
    quarantined: int = 0

    def emit(self, metrics, prefix: str = "distrib") -> None:
        if metrics is None:
            return
        for field in dataclasses.fields(self):
            metrics.inc(f"{prefix}.{field.name}", getattr(self, field.name))
        # The lease vocabulary, under the executor namespace the health
        # counters already use.
        metrics.inc("executor.lease_claims", self.claims)
        metrics.inc("executor.lease_takeovers", self.takeovers)
        metrics.inc("executor.lease_renewals", self.renewals)
        metrics.inc("executor.lease_fenced", self.fenced)
        metrics.inc("executor.lease_released", self.released)

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class WorkerFault:
    """Failure-injection knobs for one worker (tests / CI smoke).

    ``die_after_claims=N`` SIGKILLs the worker right after its Nth
    successful claim — mid-cell, lease held, heartbeat silenced: the
    canonical dead-worker-takeover scenario.  ``stall_after_claims=N``
    instead pauses for ``stall_seconds`` *without heartbeating* before
    running the cell — the canonical zombie: its lease expires, a peer
    takes over, and its late commit must be fenced.
    """

    die_after_claims: Optional[int] = None
    stall_after_claims: Optional[int] = None
    stall_seconds: float = 0.0


@dataclasses.dataclass
class WorkerReport:
    """What one worker did to the board."""

    worker_id: str
    cells_seen: int = 0
    stats: DistribStats = dataclasses.field(default_factory=DistribStats)
    quarantined: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "cells_seen": self.cells_seen,
            "stats": self.stats.as_dict(),
            "quarantined": self.quarantined,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }


def _write_marker(path: Path, payload: Dict[str, Any]) -> bool:
    """Atomically create a quarantine marker; first writer wins.
    Returns False when a marker already exists."""
    return _durable_write(
        Path(path),
        json.dumps(payload, sort_keys=True).encode("utf-8"),
        exclusive=True,
    )


def read_marker(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except Exception:
        return None


# ----------------------------------------------------------------------
# The drain loop
# ----------------------------------------------------------------------

def drain_board(
    board: "SweepBoard",
    worker_id: str,
    ttl: float = DEFAULT_LEASE_TTL,
    retries: int = 2,
    backoff_base: float = 0.05,
    poll_interval: float = 0.05,
    max_takeovers: int = DEFAULT_MAX_TAKEOVERS,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    fault: Optional[WorkerFault] = None,
    journal: Optional[SweepJournal] = None,
    metrics=None,
) -> WorkerReport:
    """Drain every open cell on *board* under the lease discipline.

    *board* is a :class:`SweepBoard`: the cell set of one sweep over
    the shared :class:`~.store.ResultStore`.

    The loop rescans until every cell is committed or quarantined:
    committed cells are skipped, unclaimed cells claimed, live foreign
    leases respected, expired/corrupt ones taken over.  When a pass
    makes no progress (everything open is leased to live peers) the
    worker idles ``poll_interval`` and rescans — that idle-rescan is
    how a peer's death eventually hands its cell over.
    """
    report = WorkerReport(worker_id=worker_id)
    stats = report.stats
    backoff = backoff_schedule(retries, base=backoff_base)
    began = time.perf_counter()
    report.cells_seen = len(board.cells())

    def note(event: str, **fields: Any) -> None:
        if journal is not None:
            journal.record(event, worker=worker_id, **fields)

    while True:
        open_cells = [
            cid
            for cid in board.cells()
            if not board.is_done(cid)
            and not Path(board.quarantine_path(cid)).exists()
        ]
        if not open_cells:
            break
        progress = False
        for cid in open_cells:
            if board.is_done(cid):
                stats.skipped_done += 1
                progress = True
                continue
            if Path(board.quarantine_path(cid)).exists():
                continue
            lease_path = Path(board.lease_path(cid))
            claimed = claim_cell(lease_path, cid, worker_id, ttl, clock)
            if claimed is None:
                continue
            progress = True
            lease = claimed.lease
            stats.claims += 1
            if claimed.how == "takeover":
                stats.takeovers += 1
            elif claimed.how == "corrupt":
                stats.corrupt_leases += 1
                stats.takeovers += 1
            note(
                "claim",
                cell=cid,
                how=claimed.how,
                token=lease.token,
                takeovers=lease.takeovers,
            )
            if lease.takeovers > max_takeovers:
                # The cell has outlived too many owners: poison.
                payload = {
                    "format": LEASE_FORMAT,
                    "cell": cid,
                    "context": board.describe(cid),
                    "error": "takeover-limit",
                    "attempts": lease.takeovers,
                    "detail": (
                        f"lease taken over {lease.takeovers} times "
                        f"(limit {max_takeovers})"
                    ),
                    "owner": worker_id,
                }
                if _write_marker(board.quarantine_path(cid), payload):
                    stats.quarantined += 1
                    report.quarantined.append(payload)
                    note("quarantine", cell=cid, error="takeover-limit")
                release_lease(lease_path, lease)
                stats.released += 1
                continue
            if (
                fault is not None
                and fault.die_after_claims is not None
                and stats.claims >= fault.die_after_claims
            ):
                # Injected mid-cell death: lease held, heartbeat never
                # starts, the cell is orphaned until a peer's takeover.
                os.kill(os.getpid(), signal.SIGKILL)
            stalled = (
                fault is not None
                and fault.stall_after_claims is not None
                and stats.claims >= fault.stall_after_claims
            )
            heartbeat = _Heartbeat(lease_path, lease, clock)
            if stalled:
                # Zombie mode: hold the lease without heartbeating for
                # longer than the TTL, then proceed as if nothing
                # happened — the fence must catch us.
                sleep(fault.stall_seconds)
            else:
                heartbeat.start()
            failure_detail = None
            result = None
            try:
                for attempt in range(retries + 1):
                    try:
                        result = board.execute(cid)
                        failure_detail = None
                        break
                    except Exception:
                        failure_detail = traceback.format_exc()
                        if attempt < retries:
                            sleep(backoff[attempt])
            finally:
                heartbeat.stop()
            stats.renewals += heartbeat.renewals
            if failure_detail is not None:
                payload = {
                    "format": LEASE_FORMAT,
                    "cell": cid,
                    "context": board.describe(cid),
                    "error": "exception",
                    "attempts": retries + 1,
                    "detail": failure_detail,
                    "owner": worker_id,
                }
                if _write_marker(board.quarantine_path(cid), payload):
                    stats.quarantined += 1
                    report.quarantined.append(payload)
                    note("quarantine", cell=cid, error="exception")
                if release_lease(lease_path, lease):
                    stats.released += 1
                continue
            # The fence check: did we keep the claim the whole time?
            fenced = heartbeat.fenced
            if not fenced:
                try:
                    current = read_lease(lease_path)
                except FileNotFoundError:
                    current = None
                fenced = current is None or not lease.same_claim(current)
            outcome = board.commit(cid, result, fenced=fenced)
            if fenced:
                stats.fenced += 1
                note("fenced", cell=cid, outcome=outcome)
            if outcome == "skipped":
                # Fenced no-op: the cell was taken over mid-run and is
                # not committed yet — the write belongs to the new
                # owner, not this zombie.
                pass
            elif outcome == "committed":
                stats.committed += 1
                note("commit", cell=cid, token=lease.token)
            elif outcome == "duplicate":
                stats.duplicates += 1
                note("duplicate", cell=cid)
            else:  # conflict: same key, different bytes — impossible
                # for pure cells, so it is loudly quarantined.
                stats.conflicts += 1
                payload = {
                    "format": LEASE_FORMAT,
                    "cell": cid,
                    "context": board.describe(cid),
                    "error": "conflict",
                    "attempts": 1,
                    "detail": "racing commit produced different bytes",
                    "owner": worker_id,
                }
                if _write_marker(board.quarantine_path(cid), payload):
                    stats.quarantined += 1
                    report.quarantined.append(payload)
                note("conflict", cell=cid)
            if not fenced and release_lease(lease_path, lease):
                stats.released += 1
        if not progress:
            sleep(poll_interval)
    report.elapsed_seconds = time.perf_counter() - began
    stats.emit(metrics)
    return report


# ----------------------------------------------------------------------
# The board
# ----------------------------------------------------------------------

class SweepBoard:
    """The cell set of one stored sweep, as a drainable board.

    Cells are :class:`~.store.CellKey` digests; completion is a
    committed (verifiable) cell in the shared :class:`ResultStore`;
    commit performs duplicate detection via the stored fingerprint
    digest — a racing byte-identical commit is a ``duplicate`` (benign,
    counted), a mismatch is a ``conflict`` (quarantined).
    """

    def __init__(self, store: ResultStore, cells: "List[SweepCell]"):
        self.store = store
        self._order = [cell.key.digest() for cell in cells]
        self._cells = {cell.key.digest(): cell for cell in cells}

    def cells(self) -> Sequence[str]:
        return self._order

    def is_done(self, cid: str) -> bool:
        return self.store.path_for(cid).exists()

    def lease_path(self, cid: str) -> Path:
        return self.store.lease_path_for(cid)

    def quarantine_path(self, cid: str) -> Path:
        return self.store.quarantine_path_for(cid)

    def describe(self, cid: str) -> str:
        cell = self._cells[cid]
        return (
            f"stage={cell.stage} shard={cell.key.shard_index}/"
            f"{cell.key.shard_count} seed={cell.key.seed} key={cid[:12]}"
        )

    def execute(self, cid: str) -> ExperimentResult:
        return self._cells[cid].task()

    def commit(self, cid: str, result: ExperimentResult, fenced: bool) -> str:
        cell = self._cells[cid]
        if self.is_done(cid):
            existing = self.store.load(cell.key)
            if existing is None:
                if fenced:
                    return "skipped"
                # The committed copy was corrupt; our fresh result
                # recommits over the quarantined corpse.
                self.store.commit(cell.key, result)
                return "committed"
            if fingerprint_digest(existing) == fingerprint_digest(result):
                return "duplicate"
            return "conflict"
        if fenced:
            # The fence says this claim was taken over: the commit
            # belongs to the new owner.  Detected no-op.
            return "skipped"
        self.store.commit(cell.key, result)
        return "committed"


# ----------------------------------------------------------------------
# The sweep manifest: how independent hosts learn the cell set
# ----------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"


@dataclasses.dataclass(frozen=True)
class SweepManifest:
    """Everything a worker needs to reconstruct a sweep's cell set.

    Travels as JSON inside the store, so independent processes (and
    hosts mounting the same directory) derive the *same* cell keys
    from the same inputs.  Configs are named from
    :data:`CONFIG_BUILDERS` plus JSON-safe field overrides — a
    manifest never pickles code.
    """

    sizes: Tuple[int, ...]
    filler_count: int
    seed: int = 2016
    shards: int = 2
    config_name: str = "correct_bind_config"
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    ptr_fraction: float = 0.01
    dnssec_ok_stub: bool = True
    trace: bool = False
    kind: str = "leakage-shard"
    code_version: str = dataclasses.field(default_factory=current_code_version)

    def config(self) -> ResolverConfig:
        try:
            builder = CONFIG_BUILDERS[self.config_name]
        except KeyError:
            raise StoreError(
                f"manifest names unknown config {self.config_name!r} "
                f"(known: {sorted(CONFIG_BUILDERS)})"
            )
        return builder(**dict(self.config_overrides))

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["format"] = LEASE_FORMAT
        payload["sizes"] = list(self.sizes)
        payload["config_overrides"] = [
            list(pair) for pair in self.config_overrides
        ]
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepManifest":
        payload = json.loads(text)
        if payload.pop("format", None) != LEASE_FORMAT:
            raise StoreError("unknown manifest format")
        payload["sizes"] = tuple(payload["sizes"])
        payload["config_overrides"] = tuple(
            (key, value) for key, value in payload.get("config_overrides", [])
        )
        return cls(**payload)

    def cells(self) -> List[SweepCell]:
        """The sweep's full cell list, stage by stage, in shard order —
        identical on every host because it derives from the manifest
        alone."""
        from .setup import standard_sweep_cells

        return standard_sweep_cells(
            self.sizes,
            filler_count=self.filler_count,
            seed=self.seed,
            config=self.config(),
            shards=self.shards,
            ptr_fraction=self.ptr_fraction,
            dnssec_ok_stub=self.dnssec_ok_stub,
            trace=self.trace,
            kind=self.kind,
            code_version=self.code_version,
        )


def write_sweep_manifest(store: ResultStore, manifest: SweepManifest) -> Path:
    """Publish *manifest* into the store, atomically.

    Idempotent for an identical manifest; a *different* manifest for a
    store that already has one is refused — one store, one sweep
    definition (make a new store for a new sweep)."""
    path = store.root / MANIFEST_NAME
    text = manifest.to_json()
    if path.exists():
        existing = path.read_text(encoding="utf-8")
        if existing == text:
            return path
        raise StoreError(
            f"store {store.root} already holds a different sweep manifest"
        )
    _durable_write(path, text.encode("utf-8"))
    return path


def load_sweep_manifest(store: ResultStore) -> SweepManifest:
    path = store.root / MANIFEST_NAME
    if not path.exists():
        raise StoreError(
            f"store {store.root} has no {MANIFEST_NAME}; run the "
            "coordinator (repro sweep --distributed) or "
            "write_sweep_manifest() first"
        )
    try:
        return SweepManifest.from_json(path.read_text(encoding="utf-8"))
    except StoreError:
        raise
    except Exception as exc:
        raise StoreError(f"unreadable sweep manifest at {path}: {exc}")


# ----------------------------------------------------------------------
# Workers and the coordinator
# ----------------------------------------------------------------------

def run_worker(
    store_root,
    worker_id: str,
    ttl: float = DEFAULT_LEASE_TTL,
    retries: int = 2,
    backoff_base: float = 0.05,
    poll_interval: float = 0.05,
    max_takeovers: int = DEFAULT_MAX_TAKEOVERS,
    fault: Optional[WorkerFault] = None,
    metrics=None,
) -> WorkerReport:
    """Join the sweep described by the store's manifest as one worker.

    This is the body of ``python -m repro work --store DIR
    --worker-id ID``: load the manifest, derive the cell set, and
    drain it under the lease discipline until every cell is committed
    (by anyone) or quarantined.  Safe to run any number of times, from
    any number of processes or hosts sharing the directory.
    """
    store = ResultStore(store_root)
    manifest = load_sweep_manifest(store)
    board = SweepBoard(store, manifest.cells())
    report = drain_board(
        board,
        worker_id,
        ttl=ttl,
        retries=retries,
        backoff_base=backoff_base,
        poll_interval=poll_interval,
        max_takeovers=max_takeovers,
        fault=fault,
        journal=store.journal(),
        metrics=metrics,
    )
    if metrics is not None:
        store.stats.emit(metrics, prefix="store")
    return report


@dataclasses.dataclass
class DistribOutcome:
    """What a distributed sweep produced: per-stage merged results
    plus the operational story (reuse/run arithmetic, quarantine,
    worker exit codes)."""

    stage_results: List[ExperimentResult]
    cells_total: int
    cells_reused: int
    cells_rerun: int
    quarantined: List[QuarantinedCell]
    worker_exits: Dict[str, Optional[int]] = dataclasses.field(
        default_factory=dict
    )
    stats: DistribStats = dataclasses.field(default_factory=DistribStats)

    @property
    def complete(self) -> bool:
        return not self.quarantined

    @property
    def result(self) -> ExperimentResult:
        """All stages merged (byte-identical to a serial run of the
        concatenated stage plans)."""
        merged = self.stage_results[0]
        from .parallel import merge_results

        for part in self.stage_results[1:]:
            merged = merge_results(merged, part)
        return merged

    def describe(self) -> str:
        return (
            f"distributed sweep cells={self.cells_total} "
            f"reused={self.cells_reused} rerun={self.cells_rerun} "
            f"quarantined={len(self.quarantined)}"
        )


def collect_sweep(
    store: ResultStore,
    manifest: Optional[SweepManifest] = None,
    run_missing: bool = True,
    journal: Optional[SweepJournal] = None,
) -> DistribOutcome:
    """Merge a (possibly partially) drained sweep from the store.

    Committed cells are loaded with full verification; quarantine
    markers become :class:`QuarantinedCell` entries; anything missing
    and unmarked is run *locally* when ``run_missing`` (the
    coordinator's fallback: a fleet that died mid-sweep degrades to a
    slower sweep, never a lost one) and committed back.
    """
    manifest = manifest or load_sweep_manifest(store)
    cells = manifest.cells()
    stage_count = max(cell.stage for cell in cells) + 1 if cells else 0
    stage_pairs: List[List[Tuple[int, ExperimentResult]]] = [
        [] for _ in range(stage_count)
    ]
    quarantined: List[QuarantinedCell] = []
    reused = rerun = 0
    for cell in cells:
        digest = cell.key.digest()
        result = store.load(cell.key)
        if result is None:
            marker_path = store.quarantine_path_for(digest)
            marker = read_marker(marker_path)
            if marker is not None:
                quarantined.append(
                    QuarantinedCell(
                        index=cell.key.shard_index,
                        context=marker.get("context", digest[:12]),
                        attempts=marker.get("attempts", 1),
                        error=marker.get("error", "exception"),
                        detail=marker.get("detail", ""),
                    )
                )
                continue
            if not run_missing:
                continue
            result = cell.task()
            store.commit(cell.key, result)
            if journal is not None:
                journal.record(
                    "commit", worker="coordinator", cell=digest
                )
            rerun += 1
        else:
            reused += 1
        stage_pairs[cell.stage].append((cell.key.shard_index, result))
    stage_results = [merge_shard_results(pairs) for pairs in stage_pairs]
    return DistribOutcome(
        stage_results=stage_results,
        cells_total=len(cells),
        cells_reused=reused,
        cells_rerun=rerun,
        quarantined=quarantined,
    )


def _worker_command(
    store_root, worker_id: str, ttl: float, retries: int,
    poll_interval: float,
) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "work",
        "--store",
        str(store_root),
        "--worker-id",
        worker_id,
        "--ttl",
        str(ttl),
        "--retries",
        str(retries),
        "--poll-interval",
        str(poll_interval),
        "--json",
    ]


def spawn_worker_process(
    store_root, worker_id: str, ttl: float = DEFAULT_LEASE_TTL,
    retries: int = 2, poll_interval: float = 0.05,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    """Start one ``repro work`` worker as a real child process (its own
    interpreter — the honest multi-process path the coordinator and
    the chaos tests use)."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    command = _worker_command(
        store_root, worker_id, ttl, retries, poll_interval
    ) + list(extra_args)
    return subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def run_distributed_sweep(
    store_root,
    workers: int = 2,
    sizes: Sequence[int] = (100,),
    filler_count: int = 20000,
    seed: int = 2016,
    shards: int = 1,
    ttl: float = DEFAULT_LEASE_TTL,
    retries: int = 2,
    poll_interval: float = 0.05,
    config_name: str = "correct_bind_config",
    metrics=None,
    worker_timeout: float = 3600.0,
) -> DistribOutcome:
    """The coordinator: manifest → N worker processes → merge.

    Spawns ``workers`` local ``repro work`` processes against
    *store_root* and waits for the cell set to drain.  Workers that
    die are *not* respawned — their cells are taken over by surviving
    peers; if every worker dies, :func:`collect_sweep`'s local
    fallback finishes the remainder in this process.  The merged
    result is byte-identical to the serial reference either way.

    The cell set is ``shards`` shards per size (default 1, the
    single-resolver cell); ``workers`` only decides who runs each
    cell, never how many cells there are.
    """
    store = ResultStore(store_root)
    manifest = SweepManifest(
        sizes=tuple(sizes),
        filler_count=filler_count,
        seed=seed,
        shards=shards,
        config_name=config_name,
    )
    write_sweep_manifest(store, manifest)
    journal = store.journal()
    journal.record(
        "distrib-start",
        workers=workers,
        sizes=list(manifest.sizes),
        shards=manifest.shards,
        seed=seed,
    )
    processes = {
        f"w{index}": spawn_worker_process(
            store_root, f"w{index}", ttl=ttl, retries=retries,
            poll_interval=poll_interval,
        )
        for index in range(workers)
    }
    exits: Dict[str, Optional[int]] = {}
    deadline = time.monotonic() + worker_timeout
    for worker_id, process in processes.items():
        remaining = max(1.0, deadline - time.monotonic())
        try:
            process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)
        exits[worker_id] = process.returncode
        # Drain pipes so children are fully reaped.
        if process.stdout is not None:
            process.stdout.close()
        if process.stderr is not None:
            process.stderr.close()
    outcome = collect_sweep(store, manifest, journal=journal)
    outcome.worker_exits = exits
    journal.record(
        "distrib-end",
        reused=outcome.cells_reused,
        rerun=outcome.cells_rerun,
        quarantined=len(outcome.quarantined),
        exits={k: v for k, v in exits.items()},
    )
    if metrics is not None:
        metrics.inc("distrib.workers_spawned", workers)
        metrics.inc(
            "distrib.workers_lost",
            sum(1 for code in exits.values() if code not in (0, 3)),
        )
        store.stats.emit(metrics, prefix="store")
    return outcome
