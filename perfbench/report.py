"""Print every benchmark metric, with its unit, for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed 2016] [--seconds 40]

Runs ``perfbench/run.py`` on each workload untraced and traced, then
prints one table of end-to-end metrics and one of per-layer metrics,
each row a metric with its unit and one column per workload, followed
by the split the workloads were chosen to show.  Exits 1 when a run is
not correct or a split does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402

WIDTH = 16


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(HERE.parent), capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def table(title: str, results: dict) -> None:
    names = list(results)
    print(f"\n{title}")
    print(f"{'metric':<40} {'unit':<10}" + "".join(f"{n:>{WIDTH}}" for n in names))
    first = results[names[0]]["metrics"]
    for metric, entry in first.items():
        row = "".join(
            f"{results[n]['metrics'][metric]['value']:>{WIDTH}.6g}" for n in names
        )
        print(f"{metric:<40} {entry['unit']:<10}{row}")


def splits(layers: dict) -> list:
    """``(claim, holds)`` for the split each workload was chosen for."""

    def value(workload, metric):
        return layers[workload]["metrics"][metric]["value"]

    def per_query(workload, metric):
        queries = value(workload, "resolver.recursive.stub_queries")
        return value(workload, metric) / queries if queries else 0.0

    quiet = ("core.store.", "core.parallel.")
    return [
        ("netsim.sched.suspends is 0 on fig8-cold",
         value("fig8-cold", "netsim.sched.suspends") == 0),
        ("netsim.sched.suspends per stub query > 1 on chaos-blackhole",
         per_query("chaos-blackhole", "netsim.sched.suspends") > 1),
        ("crypto.sign.calls per stub query on replay-warm < fig8-cold's / 10",
         per_query("replay-warm", "crypto.sign.calls")
         < per_query("fig8-cold", "crypto.sign.calls") / 10),
        ("core.store.* and core.parallel.* non-zero only on sweep-stored",
         all(
             value("sweep-stored", m)
             for m in ("core.store.commits", "core.store.loads",
                       "core.parallel.cells", "core.parallel.run_s")
         ) and not any(
             value(w, m)
             for w in layers if w != "sweep-stored"
             for m in layers[w]["metrics"] if m.startswith(quiet)
         )),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    ends = {w: run_workload(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    layers = {w: run_workload(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    table(f"end-to-end (seed {args.seed}, untraced)", ends)
    table(f"per layer (seed {args.seed}, traced)", layers)
    ok = True
    print()
    for name, result in list(ends.items()) + list(layers.items()):
        if not result["correct"]:
            ok = False
            print(f"NOT CORRECT: {name} ({result['failed']} of "
                  f"{result['attempted']} operations failed)")
    for claim, holds in splits(layers):
        ok = ok and holds
        print(f"{'holds' if holds else 'FAILS'}: {claim}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
