"""One cold measurement of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/measure.py WORKLOAD SEED LAUNCHED SCRATCH
[--trace]``, with ``src`` on ``PYTHONPATH``.  ``LAUNCHED`` is
the ``time.monotonic()`` reading taken just before this process was
started, so set-up time covers interpreter start and imports.  Prints
one JSON object as its last line of output.

``run.py`` starts this once per sample: a fresh process keeps the
process-wide hot-path memos (``repro.perf``) empty at the start of the
cold pass, as they are for one ``repro`` invocation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _hit_shares() -> dict:
    from repro import perf

    shares = {}
    for name, stats in perf.hotpath_cache_stats().items():
        if "hits" in stats:
            lookups = stats["hits"] + stats["misses"]
            shares[f"perf.{name}.hit_share"] = (
                stats["hits"] / lookups if lookups else 0.0
            )
    return shares


def _peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited
    for (the sweep's pool workers), in MB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def measure(workload_name: str, seed: int, launched: float, scratch: str,
            trace: bool) -> dict:
    import ledger
    import workloads

    book = ledger.Ledger() if trace else None
    handle = ledger.install(book) if trace else None
    workload = workloads.make(workload_name, scratch)

    def timed(state, traced: bool):
        start = time.perf_counter()
        if traced:
            outcome = book.window(lambda: workload.call(state))
        else:
            outcome = workload.call(state)
        return outcome, time.perf_counter() - start

    try:
        state = workload.prepare(seed)
        setup_s = time.monotonic() - launched
        outcome, cold_s = timed(state, trace)
        peak_rss_mb = _peak_rss_mb()
        cold = workload.check(state, outcome, resume=False)
        del outcome
        # The ledger and the memo hit shares describe one cold process:
        # the repeat pass, with the memos warm, stays outside them unless
        # it is part of the workload.
        hit_shares = _hit_shares() if trace else {}
        state = workload.prepare_resume(state, seed)
        outcome, resume_s = timed(state, trace and workload.repeat_traced)
        warm = workload.check(state, outcome, resume=True)
        del outcome, state
    finally:
        if handle is not None:
            handle.remove()

    problems = cold.problems + warm.problems
    warm_failed = warm.failed
    if warm.fingerprint != cold.fingerprint:
        problems.append("repeat pass fingerprint differs from the cold pass")
        warm_failed = warm.operations
    # Wall time of the passes a traced sample traces.
    traced_passes_s = cold_s + (resume_s if workload.repeat_traced else 0.0)
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": trace,
        "fingerprint": cold.fingerprint,
        "attempted": cold.operations + warm.operations,
        "failed": cold.failed + warm_failed,
        "problems": problems,
        "stub_queries": cold.stub_queries,
        "setup_s": setup_s,
        "cold_s": cold_s,
        "resume_s": resume_s,
        "traced_passes_s": traced_passes_s,
        "stub_qps": cold.stub_queries / cold_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if book is not None:
        layers = ledger.layer_metrics(book, cold.useful_share)
        layers["trace.coverage"] = book.attributed() / traced_passes_s
        layers.update(hit_shares)
        result["layers"] = layers
        result["ledger_wall"] = book.wall
        result["unattributed_s"] = book.self_s.get(ledger.UNATTRIBUTED, 0.0)
        result["wrappers_left"] = handle.leftover()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("launched", type=float)
    parser.add_argument("scratch")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.launched, args.scratch,
                     args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
