"""The ``repro sweep`` contract: an execution knob never changes a figure.

Each shard of a sharded sweep is a fresh resolver with a cold cache, so
the shard count is part of the measurement and the worker count must
not be.  Within each group below every invocation prints the same Fig 8
and Fig 9 tables, byte for byte:

* no knobs — the paper's single-resolver walk — whatever the worker
  count or the hot-path caches;
* ``--shards 2`` however its cells execute: pooled, stored, resumed or
  drained by lease workers;
* ``--store`` without ``--shards``: one shard, whatever the worker
  count or the execution path.

The groups are not compared with each other: a sharded or stored cell
builds its own universe for its size from a derived seed, while the
walk builds one universe for the largest size.
"""

from typing import List

from repro import perf
from repro.cli import main

SWEEP = ["sweep", "--sizes", "60,200", "--filler", "300"]


def _figures(capsys, *knobs: str) -> List[str]:
    """The Fig 8 and Fig 9 table lines ``repro sweep`` prints."""
    assert main([*SWEEP, *knobs]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Fig 8:"))
    fig9 = next(i for i, line in enumerate(lines) if line.startswith("Fig 9:"))
    end = next(
        (i for i in range(fig9, len(lines)) if not lines[i].strip()),
        len(lines),
    )
    return lines[start:end]


def test_worker_count_never_changes_the_walk(capsys):
    walk = _figures(capsys)
    assert _figures(capsys, "--parallelism", "2") == walk
    with perf.caches_disabled():
        assert _figures(capsys) == walk


def test_shard_plan_alone_sets_the_sharded_figures(capsys, tmp_path):
    store = str(tmp_path / "store")
    sharded = _figures(capsys, "--shards", "2")
    for knobs in (
        ("--parallelism", "2"),
        ("--store", store),
        ("--store", store, "--resume"),
        ("--store", str(tmp_path / "distributed"), "--distributed", "2"),
    ):
        assert _figures(capsys, "--shards", "2", *knobs) == sharded, knobs


def test_stored_sweep_defaults_to_one_shard(capsys, tmp_path):
    stored = _figures(capsys, "--store", str(tmp_path / "serial"))
    for knobs in (
        ("--store", str(tmp_path / "pooled"), "--parallelism", "2"),
        ("--store", str(tmp_path / "distributed"), "--distributed", "2"),
    ):
        assert _figures(capsys, *knobs) == stored, knobs
