"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``     — what this package reproduces, and the module map.
* ``quickstart`` — a small end-to-end leakage run (like the example).
* ``sweep``    — the Fig 8/9 leakage sweep at chosen sizes.
* ``tables``   — regenerate Tables 1-5.
* ``report``   — the full reproduction report (every table and figure).
* ``attack``   — the remedy-tampering and enumeration demonstrations.
* ``trace``    — resolve one name fully instrumented and render the
  span tree, per-observer leak summary, and metric counters.
* ``profile``  — cProfile one fig8-style cell (optionally cache-warm or
  with hot-path caches disabled) and report the hot functions plus
  cache statistics and the garbage collector's share.
* ``store``    — inspect the crash-safe sweep result store:
  ``ls`` committed cells, ``verify`` payload + fingerprint integrity,
  ``gc`` temp/corrupt/stale-version files.

Exit-code contract (``sweep``, ``store``): 0 success, 1 corruption,
2 usage error, 3 cells quarantined.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
import time
from typing import List, Optional

from . import __version__


def _cmd_info(args: argparse.Namespace) -> int:
    print(
        f"repro {__version__} — reproduction of 'Privacy Implications of\n"
        "DNSSEC Look-Aside Validation' (Mohaisen et al., ICDCS 2017).\n\n"
        "A pure-Python DNS/DNSSEC/DLV simulator measuring how DLV-enabled\n"
        "resolvers leak user queries to look-aside registries, plus the\n"
        "paper's remedies (TXT/Z-bit signalling, hashed DLV).\n\n"
        "Layers: dnscore, crypto, netsim, zones, servers, resolver,\n"
        "configs, workloads, core, analysis.  See DESIGN.md and\n"
        "EXPERIMENTS.md in the repository root."
    )
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from .core import LeakageExperiment, standard_universe, standard_workload
    from .resolver import correct_bind_config

    workload = standard_workload(args.domains)
    universe = standard_universe(workload, filler_count=args.filler)
    experiment = LeakageExperiment(universe, correct_bind_config())
    result = experiment.run(workload.names(args.domains))
    print(result.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from .analysis import (
        LeakageSweepPoint,
        fig8_dlv_queries,
        fig9_leak_proportion,
        leakage_sweep,
        sharded_leakage_sweep,
    )

    sizes = [int(part) for part in args.sizes.split(",")]
    store = None
    outcomes: list = []
    if args.resume and not args.store:
        print("--resume requires --store DIR", file=sys.stderr)
        return 2
    if args.store:
        from .core import ResultStore

        if args.resume and not os.path.isdir(args.store):
            print(
                f"--resume: store '{args.store}' does not exist "
                "(nothing to resume)",
                file=sys.stderr,
            )
            return 2
        store = ResultStore(args.store)
    # The worker count never sets the shard count: each shard is a
    # fresh resolver, so the shard count is part of the measurement.
    shards = args.shards if args.shards is not None else 1
    if args.shards is not None or store is not None:
        points = sharded_leakage_sweep(
            sizes=sizes,
            filler_count=args.filler,
            shards=shards,
            parallelism=args.parallelism,
            store=store,
            fail_fast=args.fail_fast,
            timeout=args.timeout,
            retries=args.retries,
            outcomes=outcomes,
        )
        # A size whose every cell was quarantined was not measured: its
        # merge is the empty result, which would plot as 0.
        points = [
            point
            if outcome.cells_reused + outcome.cells_rerun
            else LeakageSweepPoint(point.domains, None, None, None, None)
            for point, outcome in zip(points, outcomes)
        ]
        print(
            f"sharded sweep: {shards} shard(s), "
            f"{args.parallelism} worker(s)"
            + (f", store={args.store}" if store is not None else "")
        )
        print()
    else:
        points = leakage_sweep(sizes=sizes, filler_count=args.filler)
    print(fig8_dlv_queries(points)[1])
    print()
    print(fig9_leak_proportion(points)[1])
    quarantined = [cell for outcome in outcomes for cell in outcome.quarantined]
    if store is not None:
        reused = sum(outcome.cells_reused for outcome in outcomes)
        rerun = sum(outcome.cells_rerun for outcome in outcomes)
        print()
        print(
            f"store: {reused} cell(s) reused, {rerun} re-run, "
            f"{len(quarantined)} quarantined"
            + (
                f", {store.stats.corrupt_detected} corrupt detected"
                if store.stats.corrupt_detected
                else ""
            )
        )
    if not quarantined:
        return 0
    print("\nquarantined cells (affected points are partial):")
    for cell in quarantined:
        print(f"  - {cell.describe()}")
    return 3


def _cmd_store(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .core import ResultStore

    store = ResultStore(args.root)
    if args.action == "ls":
        rows = []
        for entry in store.entries():
            key = entry.header.get("key", {}).get("fields", {})
            extra = dict(key.get("extra", ()) or [])
            rows.append(
                (
                    entry.digest[:12],
                    key.get("kind", "?"),
                    key.get("code_version", "?"),
                    str(key.get("seed", "?")),
                    f"{key.get('shard_index', '?')}/{key.get('shard_count', '?')}",
                    str(extra.get("trace", "?")),
                    f"{entry.path.stat().st_size}",
                )
            )
        print(
            format_table(
                ["cell", "kind", "version", "seed", "shard", "trace", "bytes"],
                rows,
                title=f"store {args.root}: {len(rows)} committed cell(s)",
            )
        )
        return 0
    if args.action == "verify":
        report = store.verify()
        print(
            f"verified {report.checked} cell(s): {report.ok} ok, "
            f"{len(report.corrupt)} corrupt"
        )
        for path in report.corrupt:
            print(f"  corrupt (quarantined to *.corrupt): {path}")
        return 0 if report.clean else 1
    if args.action == "gc":
        removed = store.gc(all_versions=args.all_versions)
        print(
            f"gc: removed {removed['tmp']} temp, {removed['corrupt']} "
            f"corrupt, {removed['stale']} stale-version "
            f"({removed['bytes']} bytes)"
        )
        return 0
    raise AssertionError(f"unknown store action {args.action!r}")


def _window_json(window) -> dict:
    """Availability-extended window counters for ``--json`` output."""
    return {
        "queries": window.queries,
        "failures": window.failures,
        "servfail_rate": window.servfail_rate,
        "timeout_rate": window.timeout_rate,
        "leak_rate": window.leak_rate,
        "case2_queries": window.case2_queries,
        "leaked_domains": len(window.leaked_domains),
        "retries": window.retries,
        "stale_served": window.stale_served,
        "admission_queued": window.admission_queued,
        "admission_rejected": window.admission_rejected,
        "latency_p50": window.latency_p50,
        "latency_p99": window.latency_p99,
        "cache_hit_rate": window.cache_hit_rate,
    }


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    """The --chaos / --adversary modes of `repro replay`."""
    import json as json_module

    from .core import (
        ReplayLoad,
        deploy_poisoner,
        deploy_referral_bomber,
        deploy_sig_bomber,
        deploy_spoofer,
        registry_outage_scenario,
        run_adversary_replay,
        run_chaos_replay,
        standard_universe,
        standard_workload,
    )
    from .dnscore import RCode
    from .resolver import DlvOutagePolicy, correct_bind_config

    workload = standard_workload(args.domains, seed=args.seed)
    universe = standard_universe(
        workload, filler_count=args.filler, seed=args.seed
    )
    names = [spec.name for spec in workload.domains]
    load = ReplayLoad(
        users=args.users,
        per_user_qps=args.per_user_qps,
        queries=args.queries,
        window_seconds=args.window,
        max_concurrent=args.max_inflight,
        max_queue=args.max_queue,
        seed=args.seed,
    )
    policies = {
        "fallback": correct_bind_config(),
        "strict": correct_bind_config(
            dlv_outage_policy=DlvOutagePolicy.SERVFAIL
        ),
        "stale": dataclasses.replace(correct_bind_config(), serve_stale=True),
    }
    config = policies[args.policy]

    def on_window(window) -> None:
        if not args.json:
            print("  " + window.describe())

    if args.adversary:
        personas = {
            "spoofer": lambda u: deploy_spoofer(u, seed=args.seed),
            "poisoner": lambda u: deploy_poisoner(
                u, victims=names[: min(5, len(names))], seed=args.seed
            ),
            "referral-bomber": lambda u: deploy_referral_bomber(
                u, seed=args.seed
            ),
            "sig-bomber": lambda u: deploy_sig_bomber(u, seed=args.seed),
        }
        result = run_adversary_replay(
            universe,
            config,
            names,
            adversary=personas[args.adversary],
            adversary_label=args.adversary,
            policy_label=args.policy,
            load=load,
            progress=on_window,
        )
    else:
        rcode = None if args.fault_rcode == "blackhole" else RCode.SERVFAIL
        result = run_chaos_replay(
            universe,
            config,
            names,
            scenario=registry_outage_scenario(
                rcode=rcode, start=args.fault_start, end=args.fault_end
            ),
            scenario_label=f"registry-{args.fault_rcode}",
            policy_label=args.policy,
            load=load,
            progress=on_window,
        )
    if args.json:
        payload = {
            "scenario": result.scenario,
            "adversary": result.adversary,
            "policy": result.policy,
            "users": load.users,
            "fault_bounds": result.fault_bounds,
            "overall": _window_json(result.overall),
            "during_fault": _window_json(result.during_fault()),
            "after_fault": _window_json(result.after_fault()),
            "responses_forged": result.responses_forged,
            "poisoned_cache_entries": result.poisoned_cache_entries,
            "upstream_sends": result.upstream_sends,
            "windows": len(result.windows),
            "wall_seconds": result.wall_seconds,
        }
        print(json_module.dumps(payload, sort_keys=True))
    else:
        print(result.describe())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .core import ReplayParams, run_population_replay

    if args.chaos or args.adversary:
        return _cmd_chaos_replay(args)

    params = ReplayParams(
        users=args.users,
        queries=args.queries,
        domains=args.domains,
        registry_filler=args.filler,
        per_user_qps=args.per_user_qps,
        window_seconds=args.window,
        max_concurrent=args.max_inflight,
        max_queue=args.max_queue,
        seed=args.seed,
    )

    def on_window(window) -> None:
        if not args.json:
            print("  " + window.describe())

    if not args.json:
        print(
            f"replaying {params.queries} queries from {params.users} "
            f"concurrent users (window {params.window_seconds:,.0f}s, "
            f"max in-flight {params.max_concurrent})"
        )
    result = run_population_replay(params, progress=on_window)
    if args.json:
        import json as json_module

        overall = result.overall
        payload = {
            "users": params.users,
            "queries": overall.queries,
            "failures": overall.failures,
            "simulated_seconds": result.simulated_seconds,
            "simulated_qps": result.simulated_qps,
            "replay_rate": result.replay_rate,
            "wall_seconds": result.wall_seconds,
            "dlv_queries": overall.dlv_queries,
            "case1_queries": overall.case1_queries,
            "case2_queries": overall.case2_queries,
            "leaked_domains": len(overall.leaked_domains),
            "leak_rate": overall.leak_rate,
            "cache_hit_rate": overall.cache_hit_rate,
            "mean_latency": overall.mean_latency,
            "peak_in_flight": result.scheduler.peak_active,
            "admission_queued": result.scheduler.queued,
            "windows": len(result.windows),
        }
        print(json_module.dumps(payload, sort_keys=True))
    else:
        print(result.describe())
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis import (
        table1_environments,
        table2_config_variations,
        table3_secured_domains,
        table4_query_types,
        table5_txt_overhead,
    )

    print(table1_environments()[1], end="\n\n")
    print(table2_config_variations()[1], end="\n\n")
    print(table3_secured_domains(filler_count=2000)[1], end="\n\n")
    sizes = [int(part) for part in args.sizes.split(",")]
    print(table4_query_types(sizes=sizes, filler_count=args.filler)[1], end="\n\n")
    print(table5_txt_overhead(sizes=sizes, filler_count=args.filler)[1])
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import ReportScale, build_report

    scale = {
        "paper": ReportScale.paper,
        "quick": ReportScale.quick,
        "tiny": ReportScale.tiny,
    }[args.scale]()
    text = build_report(scale)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .core import (
        LeakageExperiment,
        NsecZoneWalker,
        interpose_tampering,
        standard_universe,
        standard_workload,
    )
    from .resolver import correct_bind_config

    workload = standard_workload(args.domains)

    # 1. Z-bit tampering re-opens the leak.
    universe = standard_universe(
        workload, filler_count=args.filler, deploy_zbit_signal=True
    )
    for address in universe.hosting_addresses():
        interpose_tampering(universe.network, address, force_z_bit=True)
    experiment = LeakageExperiment(
        universe, correct_bind_config(zbit_signaling=True), ptr_fraction=0.0
    )
    tampered = experiment.run(workload.names(args.domains))

    # 2. NSEC zone walk enumerates the registry.
    walk_universe = standard_universe(workload, filler_count=min(args.filler, 2000))
    walker = NsecZoneWalker(
        walk_universe.network,
        walk_universe.registry_address,
        walk_universe.registry_origin,
    )
    walk = walker.walk()

    print(
        format_table(
            ["Attack", "Result"],
            [
                (
                    "Z-bit MITM vs zbit remedy",
                    f"{tampered.leakage.leaked_count} domains leaked "
                    f"(remedy bypassed)",
                ),
                (
                    "NSEC zone walk",
                    f"enumerated {walk_universe.registry_zone.deposit_count()} "
                    f"registry entries in {walk.queries_sent} queries",
                ),
            ],
            title="Attack demonstrations (paper Sections 6.2.3 and 7.3)",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core import (
        LeakageExperiment,
        MetricsRegistry,
        Tracer,
        export_traces_jsonl,
        observer_trace_summary,
        render_span_tree,
        standard_universe,
        standard_workload,
    )
    from .dnscore import Name
    from .resolver import correct_bind_config

    workload = standard_workload(args.domains)
    universe = standard_universe(
        workload, filler_count=args.filler, registry_hashed=args.hashed
    )
    if args.qname:
        qname = Name.from_text(args.qname)
    else:
        # Default to the first signed domain without a DLV deposit: its
        # look-aside search is guaranteed to come up empty, producing
        # the Case-2 leak the trace is meant to show.
        qname = next(
            (
                spec.name
                for spec in workload.domains
                if not spec.dlv_deposited
            ),
            workload.domains[0].name,
        )
    experiment = LeakageExperiment(
        universe,
        correct_bind_config(),
        ptr_fraction=0.0,
        tracer=Tracer(universe.clock),
        metrics=MetricsRegistry(),
    )
    result = experiment.run([qname])
    for root in result.traces:
        print(render_span_tree(root))
        print()
    summaries = observer_trace_summary(result.traces)
    if summaries:
        print("Observer exposure (who saw what):")
        for summary in summaries:
            print("  " + summary.describe())
            for leaked in summary.leaked_qnames:
                print(f"    leaked: {leaked}")
        print()
    if result.metrics:
        print("Counters:")
        for name, value in result.metrics["counters"].items():
            print(f"  {name} = {value}")
        histograms = result.metrics["histograms"]
        if histograms:
            print("Histograms:")
            for name, stats in histograms.items():
                print(
                    f"  {name}: count={stats['count']} mean={stats['mean']:.4f} "
                    f"min={stats['min']:.4f} max={stats['max']:.4f}"
                )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(export_traces_jsonl(result.traces))
        print(f"\ntraces written to {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from . import perf
    from .core import LeakageExperiment, standard_universe, standard_workload
    from .resolver import correct_bind_config

    if args.uncached:
        perf.set_caches_enabled(False)
    if args.warm:
        # One untimed cell first, so the profile shows steady-state
        # (memo-hit) behaviour rather than cache fill.
        workload = standard_workload(args.domains)
        universe = standard_universe(workload, filler_count=args.filler)
        LeakageExperiment(universe, correct_bind_config()).run(
            workload.names(args.domains)
        )
    # cProfile charges a garbage collection to whichever function
    # allocated when it began, so the collector is counted apart.
    collections = [0, 0, 0]
    collector_s = 0.0
    started: List[float] = []

    def watch_collector(phase: str, info: dict) -> None:
        nonlocal collector_s
        if phase == "start":
            started.append(time.perf_counter())
        elif started:
            collections[info["generation"]] += 1
            collector_s += time.perf_counter() - started.pop()

    profiler = cProfile.Profile()
    gc.collect()  # so that the count after the cell is the cell's own
    gc.callbacks.append(watch_collector)
    try:
        profiler.enable()
        workload = standard_workload(args.domains)
        universe = standard_universe(workload, filler_count=args.filler)
        setup_collections, setup_collector_s = list(collections), collector_s
        experiment = LeakageExperiment(universe, correct_bind_config())
        result = experiment.run(workload.names(args.domains))
        profiler.disable()
    finally:
        gc.callbacks.remove(watch_collector)
    # A dropped world should free itself by reference counting; what a
    # collection still finds is cyclic garbage the cell left behind.
    del universe, experiment, result
    unreachable = gc.collect()
    if args.output:
        profiler.dump_stats(args.output)
        print(f"profile written to {args.output} (inspect with pstats/snakeviz)")
    else:
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort).print_stats(args.limit)
    cache_lines = perf.hotpath_cache_stats()
    if cache_lines:
        print("Hot-path caches:")
        for name, stats_dict in cache_lines.items():
            rendered = " ".join(f"{k}={v}" for k, v in stats_dict.items())
            print(f"  {name}: {rendered}")
    for label, (gen0, gen1, gen2), seconds in (
        (" in set-up", setup_collections, setup_collector_s),
        ("", collections, collector_s),
    ):
        print(
            f"Garbage collector{label}: {gen0} gen0, {gen1} gen1, {gen2} gen2 "
            f"collections in {seconds:.3f} s"
        )
    print(
        f"Garbage collector after dropping the cell: {unreachable} "
        f"unreachable objects"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DNSSEC look-aside validation privacy-leak reproduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="package overview").set_defaults(
        func=_cmd_info
    )

    quickstart = subparsers.add_parser("quickstart", help="small end-to-end run")
    quickstart.add_argument("--domains", type=int, default=100)
    quickstart.add_argument("--filler", type=int, default=20000)
    quickstart.set_defaults(func=_cmd_quickstart)

    exit_contract = (
        "exit codes:\n"
        "  0  success — every cell ran (or was reused) cleanly\n"
        "  1  corruption — verification found corrupt cells\n"
        "  2  usage error (bad flag combination, missing store)\n"
        "  3  quarantine — some cells were quarantined; healthy output\n"
        "     was still produced but the affected points are partial"
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="Fig 8/9 leakage sweep",
        epilog=exit_contract,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep.add_argument("--sizes", default="100,1000")
    sweep.add_argument("--filler", type=int, default=20000)
    sweep.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="worker processes for the cells of a sharded or stored "
        "sweep (default 1); it never changes a printed number, and "
        "without --shards or --store the sweep is one resolver walking "
        "the list in this process",
    )
    sweep.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="split each size into K shards, each a fresh resolver from "
        "a derived seed: the population-of-resolvers reading, which "
        "prints different counts from the paper's single-resolver walk "
        "(default: the walk; 1 with --store)",
    )
    sweep.add_argument(
        "--store",
        metavar="DIR",
        help="crash-safe result store: completed shard cells commit here "
        "as they finish and are reused on later runs (implies the "
        "sharded runner, with 1 shard unless --shards)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted stored sweep: requires --store, and "
        "the store must already exist; committed cells are skipped and "
        "only missing/corrupt/failed ones re-run",
    )
    failure = sweep.add_mutually_exclusive_group()
    failure.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="abort the sweep on the first failing cell",
    )
    failure.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="quarantine failing cells and complete the rest "
        "(default; exits 3 with a quarantine summary if any cell "
        "was quarantined)",
    )
    sweep.set_defaults(fail_fast=False)
    sweep.add_argument(
        "--timeout",
        type=float,
        help="per-cell wall-clock budget in seconds (a cell exceeding it "
        "is terminated and retried)",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry budget per failing cell, on a deterministic "
        "exponential backoff (default 2)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    store = subparsers.add_parser(
        "store",
        help="inspect the crash-safe sweep result store",
        epilog=exit_contract,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    store.add_argument("action", choices=("ls", "verify", "gc"))
    store.add_argument("--root", required=True, help="store directory")
    store.add_argument(
        "--all-versions",
        action="store_true",
        help="gc: keep cells from other code versions instead of "
        "reclaiming them",
    )
    store.set_defaults(func=_cmd_store)

    tables = subparsers.add_parser("tables", help="regenerate Tables 1-5")
    tables.add_argument("--sizes", default="100")
    tables.add_argument("--filler", type=int, default=20000)
    tables.set_defaults(func=_cmd_tables)

    report = subparsers.add_parser("report", help="full reproduction report")
    report.add_argument(
        "--scale", choices=("tiny", "quick", "paper"), default="quick"
    )
    report.add_argument("--output", help="write to a file instead of stdout")
    report.set_defaults(func=_cmd_report)

    attack = subparsers.add_parser("attack", help="attack demonstrations")
    attack.add_argument("--domains", type=int, default=100)
    attack.add_argument("--filler", type=int, default=5000)
    attack.set_defaults(func=_cmd_attack)

    trace = subparsers.add_parser(
        "trace", help="trace one resolution and render its span tree"
    )
    trace.add_argument(
        "--qname", help="name to resolve (default: a Case-2 leaking domain)"
    )
    trace.add_argument("--domains", type=int, default=50)
    trace.add_argument("--filler", type=int, default=2000)
    trace.add_argument(
        "--hashed", action="store_true", help="hashed (privacy-preserving) registry"
    )
    trace.add_argument("--output", help="also write the trace as JSONL")
    trace.set_defaults(func=_cmd_trace)

    profile = subparsers.add_parser(
        "profile",
        help="cProfile one fig8-style cell and report hot functions",
    )
    profile.add_argument("--domains", type=int, default=150)
    profile.add_argument("--filler", type=int, default=1000)
    profile.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="cumulative"
    )
    profile.add_argument("--limit", type=int, default=25)
    profile.add_argument(
        "--warm",
        action="store_true",
        help="run one untimed cell first so memos are hot (steady state)",
    )
    profile.add_argument(
        "--uncached",
        action="store_true",
        help="disable the hot-path caches for this profile",
    )
    profile.add_argument(
        "--output", help="dump raw cProfile stats to a file instead"
    )
    profile.set_defaults(func=_cmd_profile)

    replay = subparsers.add_parser(
        "replay",
        help="population-scale DITL replay on the event scheduler",
    )
    replay.add_argument(
        "--users", type=int, default=8, help="concurrent stub clients"
    )
    replay.add_argument(
        "--queries", type=int, default=2000, help="total queries to replay"
    )
    replay.add_argument("--domains", type=int, default=60)
    replay.add_argument("--filler", type=int, default=300)
    replay.add_argument(
        "--per-user-qps",
        type=float,
        default=0.05,
        help="mean per-user query rate before diurnal modulation",
    )
    replay.add_argument(
        "--window",
        type=float,
        default=300.0,
        help="aggregation-window width in simulated seconds",
    )
    replay.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission cap on concurrent sessions",
    )
    replay.add_argument("--seed", type=int, default=2017)
    replay.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    replay.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="bound the admission FIFO; arrivals beyond it are shed",
    )
    replay.add_argument(
        "--chaos",
        action="store_true",
        help="replay under a scripted DLV registry outage window",
    )
    replay.add_argument(
        "--adversary",
        choices=["spoofer", "poisoner", "referral-bomber", "sig-bomber"],
        default=None,
        help="replay with a byzantine persona live on the wire",
    )
    replay.add_argument(
        "--policy",
        choices=["fallback", "strict", "stale"],
        default="strict",
        help="resolver policy for --chaos/--adversary replays",
    )
    replay.add_argument(
        "--fault-start",
        type=float,
        default=300.0,
        help="outage window start (simulated seconds, --chaos)",
    )
    replay.add_argument(
        "--fault-end",
        type=float,
        default=1800.0,
        help="outage window end (simulated seconds, --chaos)",
    )
    replay.add_argument(
        "--fault-rcode",
        choices=["servfail", "blackhole"],
        default="servfail",
        help="registry outage mode: answers SERVFAIL or black-holes",
    )
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
