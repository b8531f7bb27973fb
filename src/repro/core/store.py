"""Crash-safe, content-addressed sweep result store with resume.

The paper's headline numbers come from sweeping scenario matrices
(configs × faults × adversaries × remedies × seeds).  Per-cell cost is
now small, but aggregate cost is not — and a sweep that dies at cell
980 of 1000 should not owe the first 979 again.  This module makes
"handle every scenario you can imagine" an *accumulation* problem:

* :class:`CellKey` captures the **input side** of a cell — code
  version, config digest, workload digest, base seed, and the shard
  plan entry (index, count, derived sub-seed) — canonicalised and
  SHA-256'd into a content address;
* :class:`ResultStore` commits each cell's :class:`ExperimentResult`
  under that address with a **write-to-temp + atomic rename** (a crash
  mid-commit leaves either the complete previous state or a stray
  ``*.tmp`` that ``gc`` removes — never a torn cell);
* reads are **fingerprint-verified**: the committed envelope stores the
  SHA-256 of the payload *and* of the result's canonical
  :func:`~repro.core.parallel.result_fingerprint`; both are recomputed
  at load, so a truncated or bit-flipped cell is detected, quarantined
  to ``*.corrupt``, and transparently re-run — never silently reused;
* :class:`SweepJournal` appends one JSON line per store event (reuse,
  commit, corruption, quarantine) with flush+fsync, tolerating a torn
  final line after a crash;
* :func:`run_stored_cells` (and :func:`run_stored_sweep`, its
  one-size call) stitches it together with the fault-tolerant executor
  from :mod:`repro.core.parallel`.  It is the one engine every sharded
  sweep runs on, with or without a store: every size of a sweep runs
  in one executor run with per-cell timeouts, retries and quarantine.
  With a store, each cell **commits where it runs** — the worker
  pickles its result once, writes the verified envelope and hands the
  payload bytes back, while the coordinator alone journals and counts
  commits (so SIGTERM mid-sweep keeps every finished cell).  A resumed
  sweep loads every committed cell and re-runs only missing, corrupt,
  or previously quarantined ones, and the merged result is
  **byte-identical** to an uninterrupted run — enforced by the same
  fingerprint machinery that validates the parallel merge.

Store layout::

    <root>/
      journal.jsonl            # append-only sweep event journal
      ab/abcdef…123.cell       # JSON envelope, addressed by key digest
      ab/abcdef…123.cell.corrupt   # quarantined by a failed verify

Operational counters (cells reused / re-run, corruption detected,
executor retries/restarts/quarantine) are deliberately kept *out* of
the merged experiment result — they describe how the run went, not
what it computed — so a resumed sweep fingerprints identically to a
fresh one.  They surface through :class:`SweepOutcome`, the journal,
an optional metrics registry, and ``python -m repro store``.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import fcntl
import functools
import hashlib
import itertools
import json
import os
import pickle
import signal
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .. import __version__, perf
from ..dnscore import Name
from ..resolver import ResolverConfig
from .experiment import ExperimentResult
from .parallel import (
    SHARD_DNSSEC_OK_STUB,
    SHARD_PTR_FRACTION,
    ExecutorHealth,
    FaultInjection,
    FaultTolerantExecutor,
    QuarantinedCell,
    ShardSpec,
    UniverseFactory,
    _ShardTask,
    plan_shards,
    merge_shard_results,
    result_fingerprint,
)

#: Envelope schema version; bump on incompatible layout changes.
STORE_FORMAT = 1

_TEMP_SERIAL = itertools.count(1)


def _durable_write(path: Path, data: bytes) -> None:
    """Land *data* at *path* whole or not at all.

    The bytes go to a private temp file beside *path* (named
    ``*.tmp.<pid>.<serial>``, unique per call, which ``gc`` reclaims
    after a crash), are flushed and fsynced, and then take *path*'s
    place with ``os.replace``: a reader sees the old file or the new
    one, never an empty or torn one.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    serial = next(_TEMP_SERIAL)
    temp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{serial}")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


# ----------------------------------------------------------------------
# Canonical digests
# ----------------------------------------------------------------------

#: Exact types :func:`_canonicalize` returns unchanged.  Subclasses
#: (``IntEnum`` members, ``str`` subclasses) take the generic path.
_PLAIN_TYPES = frozenset({str, int, float, bool, type(None)})


def _canonicalize(value: Any) -> Any:
    """Reduce *value* to JSON-safe plain data, deterministically.

    Dataclasses carry their qualified name so two different config
    classes with equal fields cannot collide; enums reduce to their
    value; sets sort; callables reduce to their qualified name (with
    ``functools.partial`` flattened, which covers the repository's
    picklable universe factories).

    Plain scalars, lists, tuples and dicts are dispatched on their
    exact type before the generic chain; the output is byte-for-byte
    what the chain alone gives (``tests/core/test_store_digest.py``),
    so every stored address and digest stays valid.
    """
    kind = type(value)
    if kind in _PLAIN_TYPES:
        return value
    if kind is list or kind is tuple:
        return [_canonicalize(item) for item in value]
    if kind is dict:
        return {
            str(key): _canonicalize(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__qualname__, "value": value.value}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__qualname__,
            "fields": {
                field.name: _canonicalize(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, Name):
        return {"__name__": value.to_text()}
    if isinstance(value, functools.partial):
        return {
            "__partial__": _canonicalize(value.func),
            "args": [_canonicalize(item) for item in value.args],
            "kwargs": {
                key: _canonicalize(value.keywords[key])
                for key in sorted(value.keywords)
            },
        }
    if callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__name__)
        return {"__callable__": f"{module}.{qualname}"}
    if isinstance(value, dict):
        return {
            str(key): _canonicalize(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, (set, frozenset)):
        return sorted(_canonicalize(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    if isinstance(value, (str, int, float)):
        return value
    return repr(value)


def canonical_json(value: Any) -> str:
    """Deterministic JSON for hashing: canonicalised, sorted keys,
    compact separators."""
    return json.dumps(
        _canonicalize(value), sort_keys=True, separators=(",", ":")
    )


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def config_digest(config: ResolverConfig) -> str:
    """Content digest of a resolver configuration (every field, via the
    dataclass canonicalisation — two configs digest equal iff their
    fields are equal)."""
    return stable_digest(config)


def names_digest(names: Sequence[Name]) -> str:
    """Content digest of an ordered name list."""
    text = "\n".join(name.to_text() for name in names)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def factory_digest(factory: UniverseFactory) -> str:
    """Content digest of a universe factory's *identity*.

    ``functools.partial`` factories (the shape
    :func:`~repro.core.setup.standard_universe_factory` returns) digest
    their target and every bound argument, so changing the filler count
    or an override dirties the key.  An opaque closure reduces to its
    qualified name and what it captures does not enter the key, so a
    stored sweep takes a ``functools.partial`` factory.
    """
    return stable_digest(factory)


def fingerprint_digest(result: ExperimentResult) -> str:
    """SHA-256 of the result's canonical fingerprint — the value the
    byte-identity machinery compares, reduced to one line."""
    return stable_digest(result_fingerprint(result))


# ----------------------------------------------------------------------
# Cell keys
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CellKey:
    """The input side of one sweep cell, i.e. everything its result is
    a pure function of."""

    #: What kind of cell ("leakage-shard", "chaos-cell", ...).
    kind: str
    #: Code version the cell was produced by (``repro.__version__``
    #: unless overridden via ``REPRO_CODE_VERSION`` — bumping either
    #: dirties every cell, and ``gc`` reclaims the stale ones).
    code_version: str
    #: Digest of the universe factory identity.
    factory: str
    #: Digest of the resolver configuration.
    config: str
    #: Digest of the shard's own (ordered) name slice.
    workload: str
    #: The sweep's base seed.
    seed: int
    #: This cell's position in the shard plan.
    shard_index: int
    shard_count: int
    #: The derived sub-seed actually driving the shard's universe.
    shard_seed: int
    #: Sorted residual parameters (ptr_fraction, trace, ...).
    extra: Tuple[Tuple[str, str], ...] = ()

    def digest(self) -> str:
        return stable_digest(self)

    def summary(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "code_version": self.code_version,
            "seed": self.seed,
            "shard": f"{self.shard_index}/{self.shard_count}",
            "shard_seed": self.shard_seed,
            "config": self.config[:12],
            "workload": self.workload[:12],
        }


def current_code_version() -> str:
    """The code version cells are keyed under.  ``REPRO_CODE_VERSION``
    overrides the package version — the knob tests and operators use to
    mark every existing cell dirty without editing source."""
    return os.environ.get("REPRO_CODE_VERSION", __version__)


def shard_cell_key(
    factory: UniverseFactory,
    config: ResolverConfig,
    spec: ShardSpec,
    shard_count: int,
    seed: int,
) -> CellKey:
    """The :class:`CellKey` for one shard of a sharded leakage sweep.

    ``extra`` records the stub behaviour every stored shard runs with:
    untraced, with :data:`~repro.core.parallel.SHARD_PTR_FRACTION` and
    :data:`~repro.core.parallel.SHARD_DNSSEC_OK_STUB`.
    """
    return CellKey(
        kind="leakage-shard",
        code_version=current_code_version(),
        factory=factory_digest(factory),
        config=config_digest(config),
        workload=names_digest(spec.names),
        seed=seed,
        shard_index=spec.index,
        shard_count=shard_count,
        shard_seed=spec.seed,
        extra=(
            ("dnssec_ok_stub", str(SHARD_DNSSEC_OK_STUB)),
            ("ptr_fraction", repr(SHARD_PTR_FRACTION)),
            ("trace", "False"),
        ),
    )


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------

class SweepJournal:
    """Append-only JSONL record of sweep/store events.

    Each :meth:`record` appends one line and fsyncs, so the journal
    survives the same crashes the store does.  A torn final line (the
    crash landed mid-append) is tolerated on read.  One sweep journals
    from its coordinator alone, but a store may be shared: two sweeps
    run on one directory at once append to one journal from two
    processes.  So every appender takes an exclusive ``flock`` for the
    heal-and-append, and none reads another's half-visible write as a
    torn tail and splits it.
    """

    def __init__(self, path: Path):
        self.path = Path(path)

    def record(self, event: str, **fields: Any) -> None:
        entry = {"event": event}
        entry.update(fields)
        line = json.dumps(_canonicalize(entry), sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Binary mode throughout: a torn tail may hold arbitrary bytes,
        # which a utf-8 text handle would refuse to even look at.
        with open(self.path, "ab+") as handle:
            # Released when the handle closes.
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            # Heal a torn tail from a crash mid-append: if the file
            # doesn't end in a newline, terminate the dead line first
            # so this record stays parseable.
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(handle.tell() - 1)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    def events(self) -> List[Dict[str, Any]]:
        if not self.path.exists():
            return []
        entries: List[Dict[str, Any]] = []
        with open(self.path, "rb") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    entries.append(json.loads(raw.decode("utf-8")))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    # A torn or bit-rotted line from a crash mid-append.
                    continue
        return entries


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclasses.dataclass
class StoreStats:
    """Counters for one :class:`ResultStore` instance's lifetime."""

    commits: int = 0
    reuses: int = 0
    misses: int = 0
    corrupt_detected: int = 0

    def emit(self, metrics, prefix: str = "store") -> None:
        if metrics is None:
            return
        metrics.inc(f"{prefix}.commits", self.commits)
        metrics.inc(f"{prefix}.cells_reused", self.reuses)
        metrics.inc(f"{prefix}.misses", self.misses)
        metrics.inc(f"{prefix}.corrupt_detected", self.corrupt_detected)


@dataclasses.dataclass
class StoreEntry:
    """One committed cell, as listed by :meth:`ResultStore.entries`."""

    digest: str
    path: Path
    header: Dict[str, Any]

    @property
    def code_version(self) -> str:
        return self.header.get("key", {}).get("fields", {}).get(
            "code_version", "?"
        )


@dataclasses.dataclass
class VerifyReport:
    """Outcome of :meth:`ResultStore.verify`."""

    checked: int = 0
    ok: int = 0
    corrupt: List[str] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt


class ResultStore:
    """Content-addressed, crash-safe on-disk cell store.

    Commits are idempotent (re-committing an equal result under the
    same key rewrites the same content) and atomic (temp file in the
    destination directory, fsync, ``os.replace``), so sweeps run at
    once may share a store: two that run one cell both commit the
    same bytes.  Loads verify both
    the payload bytes and the recomputed result fingerprint against the
    digests in the envelope; any mismatch quarantines the file to
    ``*.corrupt`` and reports a miss, which makes the cell re-run.
    """

    CELL_SUFFIX = ".cell"

    def __init__(
        self,
        root,
        code_version: Optional[str] = None,
        abort_after_commits: Optional[int] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.code_version = code_version or current_code_version()
        self.stats = StoreStats()
        #: Failure-injection knob (tests / CI smoke): after the Nth
        #: successful commit, SIGTERM the current process — a
        #: deterministic stand-in for "the operator killed the sweep
        #: halfway".
        self.abort_after_commits = abort_after_commits

    # -- paths ------------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}{self.CELL_SUFFIX}"

    def journal(self) -> SweepJournal:
        return SweepJournal(self.root / "journal.jsonl")

    # -- write ------------------------------------------------------------

    def commit(self, key: CellKey, result: ExperimentResult) -> Path:
        """Atomically commit *result* under *key*; returns the path.

        Idempotent: committing the same (key, equal-fingerprint) pair
        again rewrites identical content; committing a *different*
        result under the same key replaces it atomically (last write
        wins — keys are meant to make that impossible for pure cells).
        """
        self.write_cell(key, result)
        self.note_commit()
        return self.path_for(key.digest())

    def note_commit(self) -> None:
        """Count one commit in :attr:`stats`; the ``abort_after_commits``
        injection fires here.  A stored sweep's coordinator calls this
        when a cell committed in a worker reports back, so only the
        coordinator counts, and only the coordinator signals itself."""
        self.stats.commits += 1
        if (
            self.abort_after_commits is not None
            and self.stats.commits >= self.abort_after_commits
        ):
            os.kill(os.getpid(), signal.SIGTERM)

    def write_cell(self, key: CellKey, result: ExperimentResult) -> bytes:
        """Write *result*'s verified envelope under *key* and return its
        payload bytes, counting nothing (see :meth:`note_commit`).

        The result is pickled once; the envelope carries that payload's
        SHA-256 and the result's fingerprint digest, and lands by temp
        file, fsync and ``os.replace``.
        """
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format": STORE_FORMAT,
            "key": _canonicalize(key),
            "key_digest": key.digest(),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "fingerprint_sha256": fingerprint_digest(result),
            "payload_b64": base64.b64encode(payload).decode("ascii"),
        }
        _durable_write(
            self.path_for(key.digest()),
            json.dumps(envelope, sort_keys=True).encode("utf-8"),
        )
        return payload

    # -- read -------------------------------------------------------------

    def load(self, key: CellKey) -> Optional[ExperimentResult]:
        """The committed result for *key*, or ``None``.

        ``None`` means either "never committed" or "committed but
        corrupt" — a corrupt cell is moved aside to ``*.corrupt`` and
        counted in :attr:`stats`, and the caller re-runs it.
        """
        digest = key.digest()
        path = self.path_for(digest)
        if not path.exists():
            self.stats.misses += 1
            return None
        result = self._load_verified(path, digest)
        if result is None:
            self.stats.corrupt_detected += 1
            self.stats.misses += 1
            self._quarantine_file(path)
            return None
        self.stats.reuses += 1
        return result

    def _load_verified(
        self, path: Path, expected_digest: Optional[str] = None
    ) -> Optional[ExperimentResult]:
        """Parse + verify one cell file; ``None`` on any corruption."""
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if envelope["format"] != STORE_FORMAT:
                return None
            if (
                expected_digest is not None
                and envelope["key_digest"] != expected_digest
            ):
                return None
            payload = base64.b64decode(
                envelope["payload_b64"].encode("ascii"), validate=True
            )
            if hashlib.sha256(payload).hexdigest() != envelope["payload_sha256"]:
                return None
            # Sound bytes unpickle into a long-lived graph: no collector
            # passes over it while it loads and is fingerprinted.
            with perf.collector_paused():
                result = pickle.loads(payload)
                if fingerprint_digest(result) != envelope["fingerprint_sha256"]:
                    return None
            return result
        except Exception:
            return None

    @staticmethod
    def _quarantine_file(path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass

    # -- inspection -------------------------------------------------------

    def entries(self) -> Iterator[StoreEntry]:
        """Every committed cell (headers only, payloads not decoded)."""
        for path in sorted(self.root.glob(f"*/*{self.CELL_SUFFIX}")):
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
            except Exception:
                envelope = {}
            header = {
                key: value
                for key, value in envelope.items()
                if key != "payload_b64"
            }
            yield StoreEntry(
                digest=path.stem, path=path, header=header
            )

    def verify(self) -> VerifyReport:
        """Fully verify every cell (payload hash + recomputed result
        fingerprint), quarantining failures."""
        report = VerifyReport()
        for path in sorted(self.root.glob(f"*/*{self.CELL_SUFFIX}")):
            report.checked += 1
            digest = path.stem
            if self._load_verified(path, digest) is None:
                report.corrupt.append(str(path))
                self.stats.corrupt_detected += 1
                self._quarantine_file(path)
            else:
                report.ok += 1
        return report

    def gc(self, all_versions: bool = False) -> Dict[str, int]:
        """Reclaim junk, one class at a time, each reported in the
        returned stats dict:

        * ``tmp`` — stray ``*.tmp.*`` files from interrupted commits;
        * ``corrupt`` — ``*.corrupt`` corpses whose cell has since been
          **recommitted** healthy: the evidence served its purpose.  A
          corpse with *no* healthy sibling is kept — it is the only
          forensic record of what the corruption looked like;
        * ``stale`` — unless ``all_versions``, cells keyed under other
          code versions.
        """
        removed = {"tmp": 0, "corrupt": 0, "stale": 0, "bytes": 0}

        def reclaim(path: Path, kind: str) -> None:
            try:
                removed["bytes"] += path.stat().st_size
                path.unlink()
            except OSError:
                return
            removed[kind] += 1

        for path in list(self.root.glob("*/*.tmp.*")):
            reclaim(path, "tmp")
        for path in list(self.root.glob("*/*.corrupt")):
            # `<digest>.cell.corrupt` → reclaim only once a healthy
            # `<digest>.cell` exists again.
            stem = path.name[: -len(".corrupt")]
            if stem.endswith(self.CELL_SUFFIX):
                digest = stem[: -len(self.CELL_SUFFIX)]
                if self.path_for(digest).exists():
                    reclaim(path, "corrupt")
        if not all_versions:
            for entry in list(self.entries()):
                if entry.code_version != self.code_version:
                    removed["stale"] += 1
                    removed["bytes"] += entry.path.stat().st_size
                    entry.path.unlink()
        # Prune emptied shard directories.
        for directory in list(self.root.glob("*")):
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
        return removed


# ----------------------------------------------------------------------
# The stored sweep: resume, quarantine, byte-identity
# ----------------------------------------------------------------------

@dataclasses.dataclass
class SweepOutcome:
    """Everything one stored sweep produced.

    ``result`` merges every *healthy* cell (reused + freshly run) in
    shard order; quarantined cells are excluded from the merge and
    listed in ``quarantined``.  A complete outcome's ``result`` is
    byte-identical (per :func:`~repro.core.parallel.result_fingerprint`)
    to an uninterrupted serial run of the same plan.  ``health`` counts
    the whole executor run, which a multi-size sweep shares between
    its sizes.
    """

    result: ExperimentResult
    cells_total: int
    cells_reused: int
    cells_rerun: int
    quarantined: List[QuarantinedCell]
    health: ExecutorHealth
    store_stats: Optional[StoreStats] = None

    @property
    def complete(self) -> bool:
        return not self.quarantined

    def raise_if_incomplete(self) -> None:
        if self.quarantined:
            from .parallel import QuarantineError

            raise QuarantineError(self.quarantined)

    def describe(self) -> str:
        parts = [
            f"cells={self.cells_total}",
            f"reused={self.cells_reused}",
            f"rerun={self.cells_rerun}",
            f"quarantined={len(self.quarantined)}",
        ]
        if self.store_stats is not None and self.store_stats.corrupt_detected:
            parts.append(f"corrupt={self.store_stats.corrupt_detected}")
        return "sweep " + " ".join(parts) + f" [{self.health.describe()}]"


@dataclasses.dataclass
class SweepCell:
    """One planned cell of a stored sweep: its key, its task, and the
    stage it belongs to (one size of a multi-size sweep)."""

    key: CellKey
    task: _ShardTask
    stage: int = 0


def plan_cells(
    factory: UniverseFactory,
    config: ResolverConfig,
    names: Sequence[Name],
    seed: int = 0,
    shards: int = 1,
    stage: int = 0,
) -> List[SweepCell]:
    """One stage's cells: the shard plan of *names*, each shard with its
    :class:`CellKey` and its task, in shard order.

    The one-size and the multi-size sweep both plan here, so the same
    inputs give the same keys on every path.
    """
    return [
        SweepCell(
            key=shard_cell_key(
                factory, config, spec, shard_count=shards, seed=seed
            ),
            task=_ShardTask(factory=factory, config=config, spec=spec),
            stage=stage,
        )
        for spec in plan_shards(names, shards, seed)
    ]


class _CommittedCell:
    """What a stored cell's task hands back: the payload bytes it
    committed and, in the process that ran it, the result itself.

    Only the bytes cross a worker's pipe, so the coordinator unpickles a
    pooled cell's result once, for the merge; a cell run in-process
    hands its result over as it is.
    """

    __slots__ = ("payload", "result")

    def __init__(
        self, payload: bytes, result: Optional[ExperimentResult] = None
    ):
        self.payload = payload
        self.result = result

    def __reduce__(self):
        return (_CommittedCell, (self.payload,))

    def value(self) -> ExperimentResult:
        if self.result is None:
            with perf.collector_paused():
                self.result = pickle.loads(self.payload)
        return self.result


@dataclasses.dataclass(frozen=True)
class _CommitTask:
    """A planned cell that commits its own result where it runs."""

    cell: SweepCell
    store: ResultStore

    # The executor reads these for sub-seed affinity and failure context.
    @property
    def spec(self) -> ShardSpec:
        return self.cell.task.spec

    @property
    def config(self) -> ResolverConfig:
        return self.cell.task.config

    def __call__(self) -> _CommittedCell:
        result = self.cell.task()
        payload = self.store.write_cell(self.cell.key, result)
        return _CommittedCell(payload, result)


def run_stored_cells(
    cells: Sequence[SweepCell],
    store: Optional[ResultStore] = None,
    parallelism: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
    fail_fast: bool = False,
    backoff_base: float = 0.05,
    journal: Optional[SweepJournal] = None,
    metrics=None,
    injection: Optional[FaultInjection] = None,
) -> List[SweepOutcome]:
    """Load, run and merge planned cells, every stage in one executor
    run; returns one :class:`SweepOutcome` per stage, in stage order.

    This is the engine of every sharded sweep.  Without a *store*
    every cell runs and none is committed; the executor semantics are
    the same.  With one, each cell's key is checked against *store*
    first.  The missing (or corrupt) cells of every stage then run
    together on the fault-tolerant executor, with per-cell
    ``timeout``, ``retries`` on a deterministic backoff, and
    worker-loss detection.  A cell commits where it runs: its task
    writes the verified envelope and hands the payload bytes back.
    The coordinator journals and counts each commit as it arrives
    (``abort_after_commits`` fires there), unpickles the result once
    and merges each stage in shard order.
    Every stage's outcome carries the one run's
    :class:`~repro.core.parallel.ExecutorHealth`.
    """
    stage_count = max((cell.stage for cell in cells), default=-1) + 1
    stages = [
        [position for position, cell in enumerate(cells) if cell.stage == s]
        for s in range(stage_count)
    ]
    if journal is None and store is not None:
        journal = store.journal()

    def note(event: str, **fields: Any) -> None:
        if journal is not None:
            journal.record(event, **fields)

    reused: Dict[int, ExperimentResult] = {}
    for positions in stages:
        first = cells[positions[0]].key
        note(
            "sweep-start",
            kind=first.kind,
            seed=first.seed,
            shards=first.shard_count,
            cells=len(positions),
        )
        if store is None:
            continue
        for position in positions:
            key = cells[position].key
            corrupt_before = store.stats.corrupt_detected
            cached = store.load(key)
            if cached is not None:
                reused[position] = cached
                note("reuse", shard=key.shard_index, key=key.digest())
            elif store.stats.corrupt_detected > corrupt_before:
                note("corrupt", shard=key.shard_index, key=key.digest())

    missing = [p for p in range(len(cells)) if p not in reused]
    tasks: List[Callable[[], Any]] = []
    for position in missing:
        cell = cells[position]
        task = cell.task if store is None else _CommitTask(cell, store)
        if injection is not None:
            task = injection.wrap(cell.task.spec.index, task)
        tasks.append(task)

    executor = FaultTolerantExecutor(
        workers=max(parallelism, 1),
        timeout=timeout,
        retries=retries,
        keep_going=not fail_fast,
        backoff_base=backoff_base,
        # Injected crashes need a worker process to die in.
        isolate=True if injection is not None else None,
    )

    fresh: Dict[int, ExperimentResult] = {}

    def received(task_index: int, value: Any) -> None:
        position = missing[task_index]
        if isinstance(value, _CommittedCell):
            key = cells[position].key
            note("commit", shard=key.shard_index, key=key.digest())
            store.note_commit()
            value = value.value()
        fresh[position] = value

    _, quarantined, health = executor.run_with_quarantine(
        tasks, on_result=received
    )
    lost: Dict[int, QuarantinedCell] = {}
    for cell in quarantined:
        lost[missing[cell.index]] = cell
        # Report shard indices, not positions in the missing-task list.
        cell.index = cells[missing[cell.index]].task.spec.index

    healthy = {**reused, **fresh}
    outcomes: List[SweepOutcome] = []
    for positions in stages:
        stage_lost = [lost[p] for p in positions if p in lost]
        size = sum(len(cells[p].task.spec.names) for p in positions)
        for cell in stage_lost:
            note(
                "quarantine",
                size=size,
                shard=cell.index,
                error=cell.error,
                attempts=cell.attempts,
                context=cell.context,
            )
        outcome = SweepOutcome(
            result=merge_shard_results(
                (cells[p].task.spec.index, healthy[p])
                for p in positions
                if p in healthy
            ),
            cells_total=len(positions),
            cells_reused=sum(p in reused for p in positions),
            cells_rerun=sum(p in fresh for p in positions),
            quarantined=stage_lost,
            health=health,
            store_stats=store.stats if store is not None else None,
        )
        note(
            "sweep-end",
            reused=outcome.cells_reused,
            rerun=outcome.cells_rerun,
            quarantined=len(stage_lost),
        )
        outcomes.append(outcome)
    health.emit(metrics, prefix="executor")
    if metrics is not None:
        metrics.inc("sweep.cells_total", len(cells))
        metrics.inc("sweep.cells_reused", len(reused))
        metrics.inc("sweep.cells_rerun", len(fresh))
        metrics.inc("sweep.cells_quarantined", len(quarantined))
    if store is not None:
        store.stats.emit(metrics, prefix="store")
    return outcomes


def run_stored_sweep(
    factory: UniverseFactory,
    config: ResolverConfig,
    names: Sequence[Name],
    seed: int = 0,
    shards: Optional[int] = None,
    parallelism: int = 1,
    store: Optional[ResultStore] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    fail_fast: bool = False,
    backoff_base: float = 0.05,
    journal: Optional[SweepJournal] = None,
    metrics=None,
    injection: Optional[FaultInjection] = None,
) -> SweepOutcome:
    """A sharded leakage sweep over a crash-safe store: the one-stage
    call of :func:`run_stored_cells`.

    The shard plan is identical to
    :func:`~repro.core.parallel.run_sharded_experiment`'s; each shard's
    :class:`CellKey` is checked against *store* first and only missing
    (or corrupt) cells run — on the fault-tolerant executor, with
    per-cell ``timeout``, ``retries`` on a deterministic backoff, and
    worker-loss detection.  Fresh results commit **as they complete**,
    so an interrupted sweep resumes from its last committed cell simply
    by calling this again; ``fail_fast=False`` (the default) quarantines
    poison cells and completes the rest.

    Operational counters go to ``metrics`` (optional registry) and the
    store's journal; they never enter ``result``, which therefore stays
    byte-identical across resume/retry histories.
    """
    cells = plan_cells(
        factory,
        config,
        names,
        seed=seed,
        shards=shards if shards is not None else max(parallelism, 1),
    )
    (outcome,) = run_stored_cells(
        cells,
        store=store,
        parallelism=parallelism,
        timeout=timeout,
        retries=retries,
        fail_fast=fail_fast,
        backoff_base=backoff_base,
        journal=journal,
        metrics=metrics,
        injection=injection,
    )
    return outcome
