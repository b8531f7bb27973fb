"""SweepJournal under concurrent appenders and torn tails.

The journal is the one store file that several writers may append to
at once — sweeps run together on one shared store all record their
reuses and commits there.  These tests pin the two properties that
make that safe:

* **append atomicity** — records from concurrent appenders (threads
  and real processes) all survive, unmangled, and stay in per-writer
  order;
* **torn-tail healing** — a crash mid-append leaves at most one
  unparseable line, which ``events()`` skips and the next ``record()``
  terminates, so one torn write never poisons the file.  Healing must
  never mistake another appender's half-visible write for a torn tail.
"""

import json
import multiprocessing
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SweepJournal

APPENDERS = 4
RECORDS_EACH = 25

#: Stress shape: more appender threads than cores, many fresh files.
STRESS_APPENDERS = 8
STRESS_RECORDS_EACH = 20
STRESS_BURSTS = 40
STRESS_SECONDS = 20.0

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="needs fork")


def _append_burst(path, writer, count):
    journal = SweepJournal(Path(path))
    for index in range(count):
        journal.record("burst", writer=writer, index=index)


def _check_burst(path, writers, count):
    """Every (writer, index) pair present exactly once, every raw line
    parseable, and each writer's own records in order."""
    raw_lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert len(raw_lines) == writers * count
    seen = {}
    for line in raw_lines:
        entry = json.loads(line)  # no interleaved/mangled lines
        seen.setdefault(entry["writer"], []).append(entry["index"])
    assert sorted(seen) == list(range(writers))
    for indexes in seen.values():
        assert indexes == sorted(indexes)  # per-writer order held
        assert len(set(indexes)) == count


def test_concurrent_thread_appenders(tmp_path):
    path = tmp_path / "journal.jsonl"
    threads = [
        threading.Thread(
            target=_append_burst, args=(path, writer, RECORDS_EACH)
        )
        for writer in range(APPENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    _check_burst(path, APPENDERS, RECORDS_EACH)
    assert len(SweepJournal(path).events()) == APPENDERS * RECORDS_EACH


def test_heal_never_splits_a_concurrent_append(tmp_path):
    """Stress the heal-vs-append race: an appender that reads the tail
    while another's write is only partly visible must not write a stray
    newline.  Without the journal's lock about one burst in ten left a
    blank line (one line too many)."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    bursts = 0
    try:
        started = time.monotonic()
        while (
            bursts < STRESS_BURSTS
            and time.monotonic() - started < STRESS_SECONDS
        ):
            path = tmp_path / f"journal-{bursts}.jsonl"
            threads = [
                threading.Thread(
                    target=_append_burst,
                    args=(path, writer, STRESS_RECORDS_EACH),
                )
                for writer in range(STRESS_APPENDERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=STRESS_SECONDS)
                assert not thread.is_alive()
            _check_burst(path, STRESS_APPENDERS, STRESS_RECORDS_EACH)
            bursts += 1
    finally:
        sys.setswitchinterval(previous)
    assert bursts >= 5


@needs_fork
def test_concurrent_process_appenders(tmp_path):
    """The shared-store shape: separate interpreters, one file."""
    path = tmp_path / "journal.jsonl"
    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(
            target=_append_burst, args=(path, writer, RECORDS_EACH)
        )
        for writer in range(APPENDERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    _check_burst(path, APPENDERS, RECORDS_EACH)
    assert len(SweepJournal(path).events()) == APPENDERS * RECORDS_EACH


# Torn tails a crash can leave: truncated JSON, binary garbage, a bare
# opening brace.  None parses as JSON, so none can masquerade as a
# legitimate record.
TORN_FRAGMENTS = [
    b'{"event": "torn-claim", "cell": "ab',
    b"\x00\xff\x13garbage",
    b'["unterminated',
    b"{",
]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.just("record"),
            st.sampled_from(range(len(TORN_FRAGMENTS))),
        ),
        min_size=1,
        max_size=24,
    )
)
def test_torn_tails_never_hide_or_forge_records(ops):
    """Property: interleave real appends with crash-torn tails in any
    order — ``events()`` returns exactly the real records, in order,
    and healing never corrupts a neighbour."""
    with tempfile.TemporaryDirectory(prefix="journal-prop-") as workdir:
        journal = SweepJournal(Path(workdir) / "journal.jsonl")
        recorded = []
        for op in ops:
            if op == "record":
                sequence = len(recorded)
                journal.record("real", sequence=sequence)
                recorded.append(sequence)
            else:
                # A crash mid-append: bytes land, no newline, process
                # gone.  (The first crash may even create the file.)
                with open(journal.path, "ab") as handle:
                    handle.write(TORN_FRAGMENTS[op])
        events = journal.events()
        assert [event["sequence"] for event in events] == recorded
        assert all(event["event"] == "real" for event in events)


def test_heal_terminates_the_dead_line(tmp_path):
    """A record written after a torn tail starts on its own line: the
    torn fragment becomes one isolated skipped line, not a prefix."""
    journal = SweepJournal(tmp_path / "journal.jsonl")
    journal.record("real", sequence=0)
    with open(journal.path, "ab") as handle:
        handle.write(b'{"event": "torn')
    journal.record("real", sequence=1)
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    json.loads(lines[0])
    with pytest.raises(json.JSONDecodeError):
        json.loads(lines[1])
    json.loads(lines[2])
    assert [event["sequence"] for event in journal.events()] == [0, 1]
