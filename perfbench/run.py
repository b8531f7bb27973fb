"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig8-cold --seed 2016 --seconds 40 --trace 0

Each sample is a fresh interpreter (``perfbench/measure.py``); this
process starts samples one after another until ``--seconds`` have
passed (at least :data:`MIN_SAMPLES`).  With ``--trace 0`` it prints
the end-to-end metrics of the untraced samples: ``stub_qps`` over all
their cold passes together (stub queries over cold-pass seconds),
``resume_s`` as the mean repeat pass, and medians of ``setup_s`` and
``peak_rss_mb``.  The host this was tuned on drifts between two speeds
from one sample to the next, and a median of a few such samples flips
between them where the pooled rate and the mean do not.  With
``--trace 1`` it alternates untraced and traced samples and prints the
per-layer ledger of the traced ones, with the tracing overhead.  Metric
names and units are those ``BENCHMARK.json`` declares; a measured set
that differs from them stops the run.

``fig8-cold``, ``replay-warm`` and ``chaos-blackhole`` run pinned to one
CPU (the simulator keeps one runnable thread, so one CPU is its whole
footprint, and unpinned runs measure how the host schedules the second
vCPU instead of the program); ``sweep-stored`` runs on every CPU this
process may use.

The second-to-last line of output is a JSON record of the host, the
seed, every sample and the output fingerprints; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  Exits 2
without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Workload name -> runs pinned to one CPU.
WORKLOADS = {
    "fig8-cold": True,
    "replay-warm": True,
    "chaos-blackhole": True,
    "sweep-stored": False,
}

#: Seed a later performance claim is measured on; it must also hold on
#: the held-out seed 7.
DEFAULT_SEED = 2016

MIN_SAMPLES = 4
#: No sample starts after this many seconds, so a run ends well inside
#: its three-minute limit.
LAST_START_S = 110.0
SAMPLE_TIMEOUT_S = 60.0

SPEC = ROOT / "BENCHMARK.json"


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def as_metrics(values: Dict[str, float], units: Dict[str, str]) -> dict:
    """The result's ``metrics``: every declared metric and no other, so
    a name that drifts from ``BENCHMARK.json`` stops the run."""
    if set(values) != set(units):
        raise SystemExit(
            f"measured metrics differ from {SPEC.name}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def host_record(seed: int) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }


def precompile() -> None:
    """Write the program's bytecode caches once, so every sample's
    set-up time covers executing imports rather than compiling them
    (the environment may forbid imports from writing the caches)."""
    for directory in (SRC, HERE):
        compileall.compile_dir(str(directory), quiet=2, workers=1)


def run_sample(workload: str, seed: int, trace: bool, cpus: Optional[set],
               timeout: float) -> dict:
    """One fresh-interpreter sample; a failed sample returns its error."""
    scratch = BUILD / f"scratch-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    command = [sys.executable, str(HERE / "measure.py"), workload, str(seed)]
    preexec = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    launched = time.monotonic()
    process = subprocess.Popen(
        command + [repr(launched), str(scratch)] + (["--trace"] if trace else []),
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=preexec,
        # Its own process group, so a kill also reaches pool workers.
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"sample exceeded {timeout:.0f} s"}
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if process.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        return {"error": f"exit {process.returncode}: {' | '.join(tail)}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "sample printed no result"}


def median(samples: List[dict], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Run samples for *seconds*; returns ``(record, result)``."""
    precompile()
    cpus = {max(os.sched_getaffinity(0))} if WORKLOADS[workload] else None
    # With tracing, samples come in (untraced, traced) pairs.
    per_unit = 2 if trace else 1
    min_samples = per_unit if trace else MIN_SAMPLES
    samples: List[dict] = []
    durations: List[float] = []
    started = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        begun = time.monotonic()
        samples.append(
            run_sample(workload, seed, traced, cpus, SAMPLE_TIMEOUT_S)
        )
        durations.append(time.monotonic() - begun)
        if "error" in samples[-1]:
            break
        if len(samples) % per_unit:
            continue
        elapsed = time.monotonic() - started
        next_end = elapsed + per_unit * statistics.median(durations)
        if len(samples) >= min_samples and next_end > seconds:
            break
        if elapsed > LAST_START_S:
            break

    good = [s for s in samples if "error" not in s]
    problems = [s["error"] for s in samples if "error" in s]
    for sample in good:
        problems.extend(sample["problems"])
        problems.extend(f"{name} left patched" for name in sample.get("wrappers_left", ()))
    # A sample that crashed counts as one failed operation.
    attempted = sum(s["attempted"] for s in good) + len(samples) - len(good)
    failed = sum(s["failed"] for s in good) + len(samples) - len(good)
    fingerprints = sorted({s["fingerprint"] for s in good})
    if len(fingerprints) > 1:
        problems.append("fingerprints differ between samples of one seed")
        failed = attempted

    untraced = [s for s in good if not s["traced"]]
    traced_samples = [s for s in good if s["traced"]]
    metrics: dict = {}
    if not trace and untraced:
        metrics = as_metrics({
            "stub_qps": sum(s["stub_queries"] for s in untraced)
            / sum(s["cold_s"] for s in untraced),
            "setup_s": median(untraced, "setup_s"),
            "resume_s": statistics.fmean(s["resume_s"] for s in untraced),
            "peak_rss_mb": median(untraced, "peak_rss_mb"),
            "ok_share": 1.0 - failed / attempted,
        }, declared("end_to_end"))
    elif trace and traced_samples and untraced:
        values = {
            name: statistics.median(s["layers"][name] for s in traced_samples)
            for name in traced_samples[0]["layers"]
        }
        values["trace.overhead"] = (
            median(traced_samples, "traced_passes_s")
            / median(untraced, "traced_passes_s")
        )
        metrics = as_metrics(values, declared("per_layer"))
    record = {
        "workload": workload,
        "trace": trace,
        "host": host_record(seed),
        "pinned_cpus": sorted(cpus) if cpus else None,
        "fingerprints": fingerprints,
        "problems": problems,
        "samples": samples,
    }
    result = {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, which stops the sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = BUILD / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
