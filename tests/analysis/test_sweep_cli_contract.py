"""The ``repro sweep`` contract: an execution knob never changes a figure.

Each shard of a sharded sweep is a fresh resolver with a cold cache, so
the shard count is part of the measurement and the worker count must
not be.  Within each group below every invocation prints the same Fig 8
and Fig 9 tables, byte for byte:

* no knobs — the paper's single-resolver walk — whatever the worker
  count or the hot-path caches;
* ``--shards 2`` however its cells execute: pooled, stored, resumed,
  or stored by two sweeps sharing one store at once;
* ``--store`` without ``--shards``: one shard, whatever the worker
  count.

The groups are not compared with each other: a sharded or stored cell
builds its own universe for its size from a derived seed, while the
walk builds one universe for the largest size.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

from repro import perf
from repro.cli import build_parser, main
from repro.core import CellTimeout, ResultStore

SWEEP = ["sweep", "--sizes", "60,200", "--filler", "300"]

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _figures(capsys, *knobs: str) -> List[str]:
    """The Fig 8 and Fig 9 table lines ``repro sweep`` prints."""
    assert main([*SWEEP, *knobs]) == 0
    return _figure_lines(capsys.readouterr().out)


def _figure_lines(out: str) -> List[str]:
    lines = out.splitlines()
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
    ):
        assert _figures(capsys, "--shards", "2", *knobs) == sharded, knobs


def test_stored_sweep_defaults_to_one_shard(capsys, tmp_path):
    stored = _figures(capsys, "--store", str(tmp_path / "serial"))
    pooled = ("--store", str(tmp_path / "pooled"), "--parallelism", "2")
    assert _figures(capsys, *pooled) == stored


def test_two_sweeps_started_at_once_share_one_store(capsys, tmp_path):
    """A store needs no coordination between the sweeps that share it:
    cells are content-addressed and commits atomic and idempotent, and
    the journal's appenders take a lock.  Two processes started
    together on one directory both finish and print the store-less
    figures, the store verifies clean, and the journal holds one
    parseable commit line per cell either sweep ran."""
    sharded = _figures(capsys, "--shards", "2")
    store = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro", *SWEEP,
        "--shards", "2", "--store", str(store),
    ]
    sweeps = [
        subprocess.Popen(
            command, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    reruns = 0
    for sweep in sweeps:
        out, err = sweep.communicate(timeout=300)
        assert sweep.returncode == 0, err
        assert _figure_lines(out) == sharded
        counts = re.search(r"store: (\d+) cell\(s\) reused, (\d+) re-run", out)
        reused, rerun = (int(count) for count in counts.groups())
        assert reused + rerun == 4
        reruns += rerun
    report = ResultStore(store).verify()
    assert report.clean and report.checked == report.ok == 4
    lines = (store / "journal.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert sum(event["event"] == "commit" for event in events) == reruns


@pytest.mark.parametrize("verb", ["sweep", "store"])
def test_epilog_documents_the_contract(verb):
    parser = build_parser()
    (subparsers,) = parser._subparsers._group_actions
    text = subparsers.choices[verb].format_help()
    assert "exit codes:" in text
    for marker in ("0  success", "1  corruption", "2  usage",
                   "3  quarantine"):
        assert marker in text, (verb, marker)


def test_storeless_sweep_honours_the_failure_knobs(capsys):
    """A sharded sweep without a store runs on the same cell engine as
    a stored one: a cell past its budget is quarantined (exit 3, every
    cell listed), and with ``--fail-fast`` its typed failure raises."""
    knobs = [
        "sweep", "--shards", "2", "--sizes", "8,16", "--filler", "100",
        "--parallelism", "2", "--timeout", "0.001", "--retries", "0",
    ]
    # Cold caches keep every cell (~0.15 s) far past the pool's first
    # deadline check, one 0.02 s poll in; on memos warmed by earlier
    # tests a cell takes 8-19 ms, too close to it.
    with perf.caches_disabled():
        assert main(knobs) == 3
        out = capsys.readouterr().out
        with pytest.raises(CellTimeout):
            main([*knobs, "--fail-fast"])
    assert "store:" not in out
    assert "\n\nquarantined cells (affected points are partial):\n" in out
    listed = [line for line in out.splitlines() if line.startswith("  - ")]
    assert len(listed) == 4
    assert all("timeout after 1 attempt(s)" in line for line in listed)


#: Two sizes whose every cell times out (see the test above).
QUARANTINE_ALL = [
    "sweep", "--shards", "2", "--sizes", "8,16", "--filler", "100",
    "--parallelism", "2", "--timeout", "0.001", "--retries", "0",
]


def _quarantine_all(capsys, *knobs: str) -> str:
    with perf.caches_disabled():
        assert main([*QUARANTINE_ALL, *knobs]) == 3
    return capsys.readouterr().out


def test_quarantined_cells_name_their_size(capsys, tmp_path):
    """The cells of one shard index in two sizes read apart: each
    listed cell names its name count, and each journalled quarantine
    its sweep size."""
    store = tmp_path / "store"
    out = _quarantine_all(capsys, "--store", str(store))
    contexts = re.findall(r"^  - cell \d+ (\[[^]]*\])", out, re.MULTILINE)
    assert len(contexts) == 4
    assert len(set(contexts)) == 4, contexts
    assert sorted(re.search(r"names=(\d+)", c).group(1) for c in contexts) == [
        "4", "4", "8", "8",
    ]
    events = ResultStore(store).journal().events()
    assert sorted(
        (event["size"], event["shard"])
        for event in events
        if event["event"] == "quarantine"
    ) == [(8, 0), (8, 1), (16, 0), (16, 1)]


def test_a_point_with_no_healthy_cell_prints_as_missing(capsys):
    out = _quarantine_all(capsys)
    rows = re.findall(r"^ +(\d+) \| +(\S+)", out, re.MULTILINE)
    # Fig 8's two sizes, then Fig 9's.
    assert rows == [("8", "missing"), ("16", "missing")] * 2, out
