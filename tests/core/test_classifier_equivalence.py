"""Streaming equals batch: one Case-1/Case-2 rule on the same packets.

A replay never keeps its packets: the streaming observer of
:func:`drive_replay_sessions` classifies each one as it crosses the
wire and folds the counts into windows.  Here the capture is swapped
for one that also keeps every record, so the batch
:meth:`LeakageClassifier.report` can run over exactly the packets the
observer saw.  On every registry mode the paper studies the two must
agree, and every window must split its DLV queries into Case-1 and
Case-2 with none left over.
"""

import itertools

import pytest

import repro.core.replay as replay_module
from repro.core import (
    LeakageClassifier,
    drive_replay_sessions,
    fold_windows,
    standard_universe,
    standard_workload,
)
from repro.netsim import Capture, StreamingCapture
from repro.resolver import correct_bind_config
from repro.servers import DenialMode

DOMAINS = 150
FILLER = 300
USERS = 2
SEED = 2016

#: Registry mode -> (universe overrides, resolver config overrides).
MODES = {
    "plain": ({}, {}),
    "hashed": ({"registry_hashed": True}, {"hashed_dlv": True}),
    "nsec3": ({"registry_denial": DenialMode.NSEC3}, {}),
    "nsec5": ({"registry_denial": DenialMode.NSEC5}, {}),
    "phase-out": ({"registry_empty": True}, {}),
}


class KeepingCapture(StreamingCapture):
    """The replay's streaming capture, which also keeps every record."""

    def __init__(self, observer=None):
        super().__init__(observer)
        self.kept = Capture()

    def record(self, packet):
        self.kept.record(packet)
        super().record(packet)


def replay(mode, monkeypatch):
    universe_overrides, config_overrides = MODES[mode]
    workload = standard_workload(DOMAINS, seed=SEED)
    universe = standard_universe(
        workload, filler_count=FILLER, seed=SEED, **universe_overrides
    )
    names = workload.names(DOMAINS)
    cycle = itertools.cycle(names)
    monkeypatch.setattr(replay_module, "StreamingCapture", KeepingCapture)
    outcome = drive_replay_sessions(
        universe,
        correct_bind_config(**config_overrides),
        lambda user: next(cycle),
        users=USERS,
        per_user_qps=0.05,
        queries=len(names),
        window_seconds=300.0,
        max_concurrent=USERS,
        seed=SEED,
    )
    classifier = LeakageClassifier(
        universe.registry_zone, universe.registry_address
    )
    batch = classifier.report(universe.network.capture.kept, names)
    return outcome.windows, batch


@pytest.mark.parametrize("mode", sorted(MODES))
def test_streaming_fold_equals_batch_report(mode, monkeypatch):
    windows, batch = replay(mode, monkeypatch)
    overall = fold_windows(windows)
    assert len(windows) > 1
    assert batch.case2_queries > 0
    assert overall.dlv_queries == batch.dlv_queries
    assert overall.case1_queries == batch.case1_queries
    assert overall.case2_queries == batch.case2_queries
    assert overall.leaked_domains == {
        domain.to_text() for domain in batch.leaked_domains
    }
    for window in windows:
        assert window.case1_queries + window.case2_queries == window.dlv_queries

