"""The crash-safe result store: commit atomicity, verified reads,
corruption handling, keys, journal, gc.

The two properties the issue pins with Hypothesis:

* **commit is idempotent** — committing the same (key, result) any
  number of times leaves exactly one cell whose load fingerprints
  identically to the original;
* **corruption is detected, never silently reused** — a truncated or
  bit-flipped cell file loads as ``None`` (forcing a re-run) and is
  quarantined, for *any* corruption position.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ResultStore,
    SweepJournal,
    config_digest,
    current_code_version,
    fingerprint_digest,
    names_digest,
    plan_shards,
    result_fingerprint,
    run_shard,
    shard_cell_key,
    stable_digest,
    standard_universe_factory,
    standard_workload,
)
from repro.resolver import ResolverConfig, correct_bind_config

DOMAINS = 8
FILLER = 120
SEED = 2016


@pytest.fixture(scope="module")
def shard_result():
    """One small shard result, computed once for the whole module."""
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    plan = plan_shards(names, 2, SEED)
    spec = plan[0]
    result = run_shard(factory, correct_bind_config(), spec)
    key = shard_cell_key(
        factory, correct_bind_config(), spec, shard_count=2, seed=SEED
    )
    return key, result


def test_commit_load_roundtrip_preserves_fingerprint(tmp_path, shard_result):
    key, result = shard_result
    store = ResultStore(tmp_path)
    path = store.commit(key, result)
    assert path.exists()
    loaded = ResultStore(tmp_path).load(key)
    assert loaded is not None
    assert result_fingerprint(loaded) == result_fingerprint(result)


def test_missing_cell_is_a_miss(tmp_path, shard_result):
    key, _ = shard_result
    store = ResultStore(tmp_path)
    assert store.load(key) is None
    assert store.stats.misses == 1
    assert store.stats.corrupt_detected == 0


def test_commit_is_atomic_no_temp_left_behind(tmp_path, shard_result):
    key, result = shard_result
    store = ResultStore(tmp_path)
    store.commit(key, result)
    assert not list(tmp_path.glob("*/*.tmp.*"))


@settings(max_examples=8, deadline=None)
@given(repeats=st.integers(min_value=1, max_value=4))
def test_commit_is_idempotent(tmp_path_factory, shard_result, repeats):
    key, result = shard_result
    root = tmp_path_factory.mktemp("store-idem")
    store = ResultStore(root)
    for _ in range(repeats):
        store.commit(key, result)
    cells = list(root.glob("*/*.cell"))
    assert len(cells) == 1
    loaded = ResultStore(root).load(key)
    assert loaded is not None
    assert result_fingerprint(loaded) == result_fingerprint(result)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_corruption_is_detected_never_silently_reused(
    tmp_path_factory, shard_result, data
):
    """Truncate or bit-flip the committed file at an arbitrary point:
    the load must fail verification (→ re-run), never hand back a
    wrong result."""
    key, result = shard_result
    root = tmp_path_factory.mktemp("store-corrupt")
    store = ResultStore(root)
    path = store.commit(key, result)
    blob = bytearray(path.read_bytes())
    mode = data.draw(st.sampled_from(["truncate", "bitflip"]))
    position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    if mode == "truncate":
        corrupted = bytes(blob[:position])
    else:
        blob[position] ^= data.draw(st.integers(min_value=1, max_value=255))
        corrupted = bytes(blob)
    path.write_bytes(corrupted)

    reader = ResultStore(root)
    loaded = reader.load(key)
    if loaded is not None:
        # The only legal "survival" is a flip that verification proves
        # harmless — the recomputed fingerprint must still match the
        # original result exactly.
        assert result_fingerprint(loaded) == result_fingerprint(result)
    else:
        assert reader.stats.corrupt_detected == 1
        # Quarantined aside, so the next run re-commits cleanly.
        assert not path.exists()
        assert path.with_suffix(path.suffix + ".corrupt").exists()


def test_corrupt_cell_is_quarantined_and_recommit_recovers(
    tmp_path, shard_result
):
    key, result = shard_result
    store = ResultStore(tmp_path)
    path = store.commit(key, result)
    path.write_bytes(b"{ not json")
    assert store.load(key) is None
    assert store.stats.corrupt_detected == 1
    store.commit(key, result)
    assert store.load(key) is not None


def test_verify_reports_and_quarantines(tmp_path, shard_result):
    key, result = shard_result
    store = ResultStore(tmp_path)
    path = store.commit(key, result)
    clean = store.verify()
    assert clean.clean and clean.checked == 1 and clean.ok == 1
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])
    report = ResultStore(tmp_path).verify()
    assert not report.clean
    assert report.checked == 1 and len(report.corrupt) == 1


def test_gc_reclaims_tmp_corrupt_and_stale_versions(tmp_path, shard_result):
    key, result = shard_result
    store = ResultStore(tmp_path)
    path = store.commit(key, result)
    # A stray temp file from a crashed commit.
    stray = path.parent / (path.name + ".tmp.12345")
    stray.write_bytes(b"partial")
    # A quarantined corpse.
    corpse = path.parent / (path.name + ".corrupt")
    corpse.write_bytes(b"junk")
    # A cell from another code version.
    old_key = dataclasses.replace(key, code_version="0.0.0-old")
    store.commit(old_key, result)
    removed = store.gc()
    assert removed["tmp"] == 1
    assert removed["corrupt"] == 1
    assert removed["stale"] == 1
    assert path.exists()
    assert ResultStore(tmp_path).load(key) is not None


def test_gc_keeps_corrupt_corpse_until_recommit(tmp_path, shard_result):
    """A `.corrupt` corpse is forensic evidence while its cell is
    missing; once the cell is recommitted healthy it becomes junk."""
    key, result = shard_result
    store = ResultStore(tmp_path)
    path = store.commit(key, result)
    # Corrupt the cell: load() quarantines it to `<name>.corrupt`.
    path.write_bytes(b"{ not json")
    assert store.load(key) is None
    corpse = path.parent / (path.name + ".corrupt")
    assert corpse.exists() and not path.exists()

    removed = store.gc()
    assert removed["corrupt"] == 0 and corpse.exists()  # evidence kept

    store.commit(key, result)  # recommitted healthy
    removed = store.gc()
    assert removed["corrupt"] == 1 and not corpse.exists()
    assert ResultStore(tmp_path).load(key) is not None


def test_cell_key_digest_is_stable_and_input_sensitive(shard_result):
    key, _ = shard_result
    assert key.digest() == key.digest()
    assert key.code_version == current_code_version()
    # Every input-side component dirties the address.
    variants = [
        dataclasses.replace(key, seed=key.seed + 1),
        dataclasses.replace(key, shard_index=key.shard_index + 1),
        dataclasses.replace(key, shard_seed=key.shard_seed + 1),
        dataclasses.replace(key, code_version="9.9.9"),
        dataclasses.replace(key, config=config_digest(ResolverConfig())),
        dataclasses.replace(key, extra=key.extra + (("x", "1"),)),
    ]
    digests = {key.digest()} | {variant.digest() for variant in variants}
    assert len(digests) == 1 + len(variants)


def test_config_and_names_digests_discriminate():
    bind = correct_bind_config()
    assert config_digest(bind) == config_digest(correct_bind_config())
    assert config_digest(bind) != config_digest(
        dataclasses.replace(bind, serve_stale=True)
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    assert names_digest(names) == names_digest(list(names))
    assert names_digest(names) != names_digest(names[:-1])
    assert names_digest(names) != names_digest(list(reversed(names)))


def test_code_version_env_override_dirties_cells(
    tmp_path, shard_result, monkeypatch
):
    key, result = shard_result
    ResultStore(tmp_path).commit(key, result)
    monkeypatch.setenv("REPRO_CODE_VERSION", "experimental")
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    spec = plan_shards(names, 2, SEED)[0]
    new_key = shard_cell_key(
        factory, correct_bind_config(), spec, shard_count=2, seed=SEED
    )
    assert new_key.code_version == "experimental"
    assert new_key.digest() != key.digest()
    assert ResultStore(tmp_path).load(new_key) is None


def test_shard_key_address_is_pinned(monkeypatch):
    """A committed cell keeps its address: under a fixed code version,
    shard 0's key carries the leakage-shard kind and the fixed stub
    behaviour, and digests to the value stores already hold."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
    factory = standard_universe_factory(
        DOMAINS, filler_count=FILLER, workload_seed=SEED
    )
    names = standard_workload(DOMAINS, seed=SEED).names(DOMAINS)
    spec = plan_shards(names, 2, SEED)[0]
    key = shard_cell_key(
        factory, correct_bind_config(), spec, shard_count=2, seed=SEED
    )
    assert key.kind == "leakage-shard"
    assert key.extra == (
        ("dnssec_ok_stub", "True"),
        ("ptr_fraction", "0.01"),
        ("trace", "False"),
    )
    assert key.digest() == (
        "cb26a859f0b05cfe54828a90dc263deceb021d4f690283c5d557bdaa91a64d6f"
    )


def test_stable_digest_canonicalisation():
    # Key order and tuple/list distinctions must not matter.
    assert stable_digest({"a": 1, "b": (1, 2)}) == stable_digest(
        {"b": [1, 2], "a": 1}
    )
    # Sets are order-free.
    assert stable_digest({1, 2, 3}) == stable_digest({3, 2, 1})
    # Enum identity is part of the digest.
    from repro.resolver.config import DlvOutagePolicy

    assert stable_digest(DlvOutagePolicy.SERVFAIL) != stable_digest(
        DlvOutagePolicy.INSECURE_FALLBACK
    )


def test_journal_appends_and_tolerates_torn_tail(tmp_path):
    journal = SweepJournal(tmp_path / "journal.jsonl")
    journal.record("sweep-start", cells=4)
    journal.record("commit", shard=0, key="abc")
    # A crash mid-append leaves a torn final line.
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "comm')
    events = journal.events()
    assert [event["event"] for event in events] == ["sweep-start", "commit"]
    # Appending after the torn tail keeps working.
    journal.record("sweep-end", reused=1)
    assert journal.events()[-1]["event"] == "sweep-end"


def test_fingerprint_digest_matches_result_identity(shard_result):
    key, result = shard_result
    assert fingerprint_digest(result) == stable_digest(
        result_fingerprint(result)
    )
