"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's tables or figures and prints
the rows/series so the output can be compared against the publication
(and against EXPERIMENTS.md).  Scales are environment-tunable:

* ``REPRO_BENCH_SIZES``  — comma-separated sweep sizes for Figs 8/9
  (default ``100,1000,10000``; the paper goes to 1M, which works but
  takes long in pure Python).
* ``REPRO_BENCH_FILLER`` — DLV registry background population
  (default 60000, the calibrated value).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import List

import pytest

from repro.analysis import leakage_sweep
from repro.core import DEFAULT_REGISTRY_FILLER_COUNT

#: Where ``BENCH_<name>.json`` records land: the repository root.
REPO_ROOT = Path(__file__).resolve().parent.parent


def _env_sizes() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_SIZES", "100,1000,10000")
    return [int(part) for part in raw.split(",") if part]


def _env_filler() -> int:
    return int(
        os.environ.get("REPRO_BENCH_FILLER", str(DEFAULT_REGISTRY_FILLER_COUNT))
    )


@pytest.fixture(scope="session")
def bench_sizes() -> List[int]:
    return _env_sizes()


@pytest.fixture(scope="session")
def registry_filler_count() -> int:
    return _env_filler()


@pytest.fixture(scope="session")
def sweep_points(bench_sizes, registry_filler_count):
    """The Figs 8/9 leakage sweep, computed once per session."""
    return leakage_sweep(sizes=bench_sizes, filler_count=registry_filler_count)


def emit(text: str) -> None:
    """Print a bench's table/series under a visible delimiter."""
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def host() -> dict:
    """The machine a run was measured on: rates only compare within one."""
    return {
        "cpu_count": os.cpu_count(),
        # CPUs this process may run on (Linux only).
        "affinity": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def record(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` at the repository root: *payload*
    plus the host it was measured on and the command that ran it.
    Returns the path written."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    document = {"host": host(), "command": " ".join(sys.argv), **payload}
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path
