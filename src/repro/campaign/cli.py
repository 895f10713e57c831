"""``python -m repro`` - the unified campaign command line.

Drives every *registered* experiment through the campaign layer, so
runs are cached, resumable and scriptable:

.. code-block:: text

    python -m repro run --list               # discover experiments
    python -m repro run fig6 --fast          # figure 6, quick budget
    python -m repro run table1 --processes 1 # table 1 (serial timing)
    python -m repro run fig5 table2          # several experiments
    python -m repro run mui --fast           # multi-user interference
    python -m repro run ablations --full     # paper-scale budgets
    python -m repro queue submit fig6 table2 # enqueue campaigns...
    python -m repro queue work               # ...and run them (fleet-safe)
    python -m repro queue status             # progress/ETA per job
    python -m repro queue drain              # empty the queue
    python -m repro cache ls                 # stored results
    python -m repro cache clear              # drop stored results
    python -m repro cache gc --max-bytes N   # evict oldest (sharded)
    python -m repro cache merge SRC          # union another cache in
    python -m repro report                   # re-print saved reports
    python -m repro trace fig6 --fast        # span tree of one run
    python -m repro stats                    # aggregate store/queue stats

Experiments self-register via the ``@experiment`` decorator in
:mod:`repro.experiments.registry`; adding a harness module makes it
runnable here with no CLI change.  Common flags: ``--fast`` (default)
/ ``--full`` select the Monte-Carlo budget, ``--processes`` fans
scenarios out over a process pool, ``--seed`` overrides the
experiment's default seed, ``--chunk-bits`` sizes the Monte-Carlo
chunks, and ``--cache-dir`` / ``--no-cache`` / ``--sharded`` control
the result store (the flavor is autodetected from an existing layout;
fresh directories are classic for ``run`` and sharded for ``queue
work``).
Re-running a completed campaign executes zero scenarios; an
interrupted campaign resumes from its checkpoints.  ``queue work``
converts SIGINT/SIGTERM into graceful preemption: the in-flight job
checkpoints what completed and goes back to pending.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.campaign.store import ResultStore


def _positive_int(text: str) -> int:
    """argparse type for flags that only make sense strictly positive
    (e.g. ``--chunk-bits``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _registry():
    """Experiment discovery, deferred so ``cache``/``queue`` commands
    stay import-light."""
    from repro.experiments.registry import all_experiments

    return {e.name: e for e in all_experiments()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Campaign runner for the DATE'07 UWB reproduction: "
                    "cached, resumable experiment harnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run experiment campaigns through the result store")
    # No choices= here: the registry is discovered lazily; unknown
    # names are validated in cmd_run (and --list needs no names).
    run_p.add_argument("experiments", nargs="*", metavar="experiment",
                       help="registered experiment names "
                            "(see --list)")
    run_p.add_argument("--list", action="store_true", dest="list_only",
                       help="list registered experiments and exit")
    _add_budget_flags(run_p)
    _add_cache_flags(run_p)
    run_p.add_argument("--no-cache", action="store_true",
                       help="bypass the result store entirely")

    lint_p = sub.add_parser(
        "lint", help="static netlist verification (graph-based "
                     "pre-flight checks)")
    lint_p.add_argument("targets", nargs="*", metavar="netlist",
                        help="Spice netlist file path or built-in "
                             "circuit name (see --list)")
    lint_p.add_argument("--list", action="store_true", dest="list_only",
                        help="list built-in circuits and lint rules, "
                             "then exit")
    lint_p.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format (json round-trips through "
                             "LintReport.from_json)")
    lint_p.add_argument("--fail-on", choices=("error", "warn", "info"),
                        default="error", dest="fail_on",
                        help="exit non-zero when findings at or above "
                             "this severity exist (default: error)")
    lint_p.add_argument("--no-title-line", action="store_true",
                        help="treat the first netlist line as content, "
                             "not a title")

    queue_p = sub.add_parser(
        "queue", help="campaign-as-a-service: durable job queue + "
                      "work-stealing workers")
    queue_sub = queue_p.add_subparsers(dest="queue_command",
                                       required=True)
    submit_p = queue_sub.add_parser(
        "submit", help="enqueue experiment campaigns as durable jobs")
    submit_p.add_argument("experiments", nargs="+", metavar="experiment",
                          help="registered experiment names")
    _add_budget_flags(submit_p)
    submit_p.add_argument("--module", action="append", default=[],
                          metavar="MOD",
                          help="extra module(s) the worker imports "
                               "before resolving the experiment "
                               "(carries user @experiment "
                               "registrations with the job)")
    _add_queue_flags(submit_p)

    status_p = queue_sub.add_parser(
        "status", help="pending/claimed/done/failed jobs with "
                       "progress and ETA")
    _add_queue_flags(status_p)

    work_p = queue_sub.add_parser(
        "work", help="claim and run queued jobs (fleet-safe; "
                     "SIGINT/SIGTERM preempt gracefully)")
    _add_queue_flags(work_p)
    _add_cache_flags(work_p)
    work_p.add_argument("--worker-id", default=None, metavar="ID",
                        help="worker name stamped into heartbeats "
                             "(default: host-pid)")
    work_p.add_argument("--follow", action="store_true",
                        help="keep polling after the queue drains "
                             "(resident worker)")
    work_p.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="idle sleep between claims with --follow "
                             "(default: 0.5s)")
    work_p.add_argument("--max-jobs", type=_positive_int, default=None,
                        metavar="N", help="stop after N jobs")
    work_p.add_argument("--stale-after", type=float, default=None,
                        metavar="S",
                        help="reclaim claimed jobs whose heartbeat is "
                             "older than S seconds (default: 300)")

    drain_p = queue_sub.add_parser(
        "drain", help="empty the queue (jobs in every state; the "
                      "result store is untouched)")
    _add_queue_flags(drain_p)

    cache_p = sub.add_parser("cache", help="inspect the result store")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    ls_p = cache_sub.add_parser("ls", help="list stored results")
    _add_cache_flags(ls_p)
    clear_p = cache_sub.add_parser("clear", help="delete stored results")
    _add_cache_flags(clear_p)
    gc_p = cache_sub.add_parser(
        "gc", help="evict stored results by total size and/or age "
                   "(sharded store)")
    _add_cache_flags(gc_p)
    gc_p.add_argument("--max-bytes", type=int, default=None, metavar="N",
                      help="evict oldest entries until the store is "
                           "at most N bytes")
    gc_p.add_argument("--max-age", type=float, default=None, metavar="S",
                      help="evict entries created more than S seconds "
                           "ago")
    merge_p = cache_sub.add_parser(
        "merge", help="union another store's results into this one "
                      "(newest wins per key)")
    merge_p.add_argument("source", metavar="SRC",
                         help="source store directory (either flavor)")
    _add_cache_flags(merge_p)

    report_p = sub.add_parser(
        "report", help="print the saved report of past runs")
    report_p.add_argument("experiments", nargs="*", metavar="experiment",
                          help="limit to these experiments (default: all)")
    _add_cache_flags(report_p)

    trace_p = sub.add_parser(
        "trace", help="run one experiment with hierarchical tracing "
                      "and print its span tree (repro.obs)")
    trace_p.add_argument("experiment", metavar="experiment",
                         help="registered experiment name (see "
                              "`repro run --list`)")
    trace_p.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="span-tree format (json round-trips "
                              "through repro.obs.export.TraceReport)")
    _add_budget_flags(trace_p)

    stats_p = sub.add_parser(
        "stats", help="aggregate metrics over a result store and/or "
                      "job queue directory")
    stats_p.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="output format (json is a tagged "
                              "repro.stats/1 document)")
    _add_cache_flags(stats_p)
    _add_queue_flags(stats_p)
    return parser


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """Execution knobs shared by ``run`` and ``queue submit``."""
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--fast", action="store_true", default=True,
                        help="quick Monte-Carlo budgets (default)")
    budget.add_argument("--full", action="store_true",
                        help="paper-scale Monte-Carlo budgets")
    parser.add_argument("--processes", type=int, default=None,
                        help="fan scenarios out over N processes")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment's default seed")
    parser.add_argument("--chunk-bits", type=_positive_int, default=None,
                        metavar="N",
                        help="Monte-Carlo chunk size (bits per "
                             "vectorized chunk; default: backend "
                             "native)")


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-store directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--sharded",
                        action=argparse.BooleanOptionalAction,
                        default=None,
                        help="force the sharded (or classic) store "
                             "flavor; default: autodetect from the "
                             "existing layout")


def _add_queue_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queue-dir", default=None, metavar="DIR",
                        help="job-queue directory (default: "
                             "$REPRO_QUEUE_DIR or <cache root>/queue)")


def _make_store(args: argparse.Namespace, *,
                default_sharded: bool = False) -> ResultStore:
    from repro.campaign.queue import open_store

    return open_store(args.cache_dir,
                      sharded=getattr(args, "sharded", None),
                      default_sharded=default_sharded)


def cmd_list() -> int:
    experiments = _registry()
    print("registered experiments:")
    for exp in experiments.values():
        print(f"  {exp.name:<12s} {exp.description}")
    print(f"{len(experiments)} experiments "
          "(run with: python -m repro run <name>)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.list_only:
        return cmd_list()
    if not args.experiments:
        print("no experiments given (try: python -m repro run --list)")
        return 2
    experiments = _registry()
    unknown = sorted(set(args.experiments) - set(experiments))
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(choose from {', '.join(experiments)})")
        return 2
    from repro.experiments.registry import ExperimentContext

    store = None if getattr(args, "no_cache", False) else _make_store(args)
    for name in args.experiments:
        ctx = ExperimentContext(full=args.full,
                                processes=args.processes,
                                seed=args.seed, store=store,
                                chunk_bits=args.chunk_bits)
        start = time.perf_counter()
        text = experiments[name].run(ctx)
        elapsed = time.perf_counter() - start
        print(text)
        if store is not None:
            print(f"campaign[{name}]: executed={store.misses} "
                  f"cached={store.hits} wall={elapsed:.3f}s "
                  f"cache={store.root}")
            store.save_report(name, text)
            # Per-experiment accounting when several run in one call.
            store.hits = store.misses = 0
        else:
            print(f"campaign[{name}]: uncached wall={elapsed:.3f}s")
        print()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: parse/build each target, run the rule engine,
    exit 0 (clean below --fail-on), 1 (findings at/above --fail-on) or
    2 (unknown target / parse failure)."""
    import os

    from repro.circuits import builtin_circuits
    from repro.spice import ParseError
    from repro.spice.lint import (
        Severity,
        all_rules,
        lint_circuit,
        lint_netlist,
        lint_subckt,
    )
    from repro.spice.netlist import Subckt

    builtins = builtin_circuits()
    if args.list_only:
        print("built-in circuits:")
        for name in builtins:
            print(f"  {name}")
        print("lint rules:")
        for rule in all_rules():
            print(f"  {rule.rule_id:<14s} [{rule.severity.label:<5s}] "
                  f"{rule.title}")
        return 0
    if not args.targets:
        print("no netlists given (try: python -m repro lint --list)")
        return 2

    threshold = Severity.from_label(args.fail_on)
    failed = False
    for target in args.targets:
        try:
            if target in builtins:
                built = builtins[target]()
                if isinstance(built, Subckt):
                    report = lint_subckt(built)
                else:
                    report = lint_circuit(built)
            elif os.path.exists(target):
                with open(target, encoding="utf-8") as fh:
                    text = fh.read()
                report = lint_netlist(
                    text, title_line=not args.no_title_line)
            else:
                print(f"unknown target {target!r}: not a file and not a "
                      f"built-in circuit (choose from "
                      f"{', '.join(builtins)})")
                return 2
        except ParseError as exc:
            print(f"{target}: parse error: {exc}")
            return 2
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.format_text())
        if report.at_least(threshold):
            failed = True
    return 1 if failed else 0


def cmd_queue(args: argparse.Namespace) -> int:
    """``repro queue submit|status|work|drain``."""
    from repro.campaign.queue import JobQueue, work_loop

    queue = JobQueue(args.queue_dir)
    if args.queue_command == "submit":
        return _queue_submit(queue, args)
    if args.queue_command == "status":
        return _queue_status(queue)
    if args.queue_command == "work":
        return _queue_work(queue, args, work_loop)
    if args.queue_command == "drain":
        removed = queue.drain()
        total = sum(removed.values())
        detail = " ".join(f"{state}={n}" for state, n in removed.items())
        print(f"drained {total} job(s) from {queue.root} ({detail})")
        return 0
    raise AssertionError(f"unhandled queue command "
                         f"{args.queue_command!r}")


def _queue_submit(queue, args: argparse.Namespace) -> int:
    from repro.campaign.queue import JobSpec

    # User modules may register extra experiments; import them before
    # validating the names (the worker repeats the import job-side).
    import importlib

    for module in args.module:
        importlib.import_module(module)
    experiments = _registry()
    unknown = sorted(set(args.experiments) - set(experiments))
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(choose from {', '.join(experiments)})")
        return 2
    for name in args.experiments:
        job_id = queue.submit(JobSpec(
            experiment=name, full=args.full, seed=args.seed,
            processes=args.processes, chunk_bits=args.chunk_bits,
            modules=tuple(args.module)))
        print(f"submitted {job_id} [{name}]")
    counts = queue.counts()
    print(f"queue at {queue.root}: pending={counts['pending']} "
          f"claimed={counts['claimed']} done={counts['done']} "
          f"failed={counts['failed']}")
    return 0


def _queue_status(queue) -> int:
    now = time.time()
    counts = queue.counts()
    print(f"queue at {queue.root}")
    for state in ("pending", "claimed"):
        print(f"{state}: {counts[state]}")
        for job_id, spec in queue.jobs(state):
            line = f"  {job_id} [{spec.experiment}]"
            stages = None
            if state == "claimed":
                beat = queue.read_heartbeat(job_id)
                if beat is not None:
                    line += f" worker={beat.get('worker', '?')}"
                    if beat.get("total"):
                        line += (f" done={beat.get('done', 0)}"
                                 f"/{beat.get('total')}")
                    # No wall-time history yet (or a single sample):
                    # the tracker reports None and we show "--" rather
                    # than a nonsense projection.
                    eta = beat.get("eta_seconds")
                    line += (f" eta={eta:.1f}s" if eta is not None
                             else " eta=--")
                    line += f" age={now - beat.get('time', now):.1f}s"
                    stages = beat.get("stages")
                else:
                    line += " (no heartbeat yet)"
            print(line)
            if stages:
                print("    stages: " + _format_stages(stages))
    # concluded jobs carry outcome records, not specs
    for state in ("done", "failed"):
        print(f"{state}: {counts[state]}")
        for job_id in queue.job_ids(state):
            outcome = queue.outcome(job_id) or {}
            line = (f"  {job_id} [{outcome.get('experiment', '?')}]"
                    f" executed={outcome.get('executed', 0)} "
                    f"cached={outcome.get('cached', 0)} "
                    f"wall={outcome.get('wall', 0.0):.3f}s")
            if outcome.get("error"):
                line += f" error={outcome['error']}"
            print(line)
    return 0


def _queue_work(queue, args: argparse.Namespace, work_loop) -> int:
    import os
    import signal
    import socket
    import threading

    store = _make_store(args, default_sharded=True)
    worker = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    stop = threading.Event()

    def on_signal(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, on_signal)
        except ValueError:  # not the main thread (embedded use)
            pass
    from repro.campaign.queue import DEFAULT_STALE_AFTER

    stale_after = args.stale_after if args.stale_after is not None \
        else DEFAULT_STALE_AFTER
    try:
        outcomes = work_loop(queue, store, worker=worker,
                             follow=args.follow, poll=args.poll,
                             max_jobs=args.max_jobs,
                             stale_after=stale_after,
                             preempt=stop.is_set, log=print)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    executed = sum(o.get("executed", 0) for o in outcomes)
    cached = sum(o.get("cached", 0) for o in outcomes)
    states = [o.get("state") for o in outcomes]
    print(f"worker {worker}: {len(outcomes)} job(s) "
          f"(done={states.count('done')} failed={states.count('failed')} "
          f"preempted={states.count('preempted')}) "
          f"executed={executed} cached={cached} store={store.root}")
    return 1 if "failed" in states else 0


def _format_stages(stages: dict) -> str:
    """``name=wall`` pairs, biggest wall first (heartbeat/status view)."""
    ordered = sorted(stages.items(), key=lambda kv: -float(kv[1]))
    return " ".join(f"{name}={float(wall):.3f}s"
                    for name, wall in ordered)


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.obs.export import format_bytes

    store = _make_store(args)
    if args.cache_command == "clear":
        removed, freed = store.clear()
        print(f"removed {removed} stored results "
              f"({format_bytes(freed)}) from {store.root}")
        return 0
    if args.cache_command == "gc":
        return _cache_gc(store, args)
    if args.cache_command == "merge":
        return _cache_merge(store, args)
    entries = store.entries()
    if not entries:
        print(f"(result store at {store.root} is empty)")
        return 0
    print(f"{'key':<14s} {'scenario':<28s} {'wall':>9s} "
          f"{'size':>9s}  fn")
    total = 0
    for e in sorted(entries, key=lambda e: e.created):
        total += e.size_bytes
        print(f"{e.key[:12] + '..':<14s} {e.name:<28.28s} "
              f"{e.wall_time:>8.3f}s {e.size_bytes / 1024:>8.1f}K"
              f"  {e.fn}")
    print(f"{len(entries)} results, {format_bytes(total)} total, "
          f"root {store.root}")
    return 0


def _cache_gc(store, args: argparse.Namespace) -> int:
    from repro.campaign.shard import ShardedResultStore
    from repro.obs.export import format_bytes

    if not isinstance(store, ShardedResultStore):
        print(f"cache gc needs the sharded store; {store.root} holds "
              f"a classic layout (use `repro cache clear`, or migrate "
              f"with `repro cache merge` into a sharded directory)")
        return 2
    if args.max_bytes is None and args.max_age is None:
        print("nothing to do: give --max-bytes and/or --max-age")
        return 2
    evicted, freed = store.gc(max_bytes=args.max_bytes,
                              max_age=args.max_age)
    print(f"evicted {evicted} stored results "
          f"({format_bytes(freed)}) from {store.root}")
    return 0


def _cache_merge(store, args: argparse.Namespace) -> int:
    from repro.campaign.queue import open_store
    from repro.campaign.shard import ShardedResultStore

    if not isinstance(store, ShardedResultStore):
        print(f"cache merge needs a sharded destination; {store.root} "
              f"holds a classic layout (pass --sharded with a fresh "
              f"--cache-dir to migrate into)")
        return 2
    source = open_store(args.source, default_sharded=False)
    adopted = store.merge(source)
    print(f"merged {adopted} entr{'y' if adopted == 1 else 'ies'} "
          f"from {source.root} into {store.root}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = _make_store(args)
    wanted = [e for e in args.experiments if e]
    if wanted:
        known = set(_registry())
        unknown = sorted(set(wanted) - known)
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)} "
                  f"(choose from {', '.join(sorted(known))})")
            return 2
    found = False
    for name, text in store.load_reports():
        if wanted and name not in wanted:
            continue
        found = True
        print(f"=== {name} ===")
        print(text)
        print()
    if not found:
        which = ", ".join(wanted) if wanted else "any experiment"
        print(f"no saved reports for {which} under {store.reports_dir}; "
              f"run `python -m repro run <experiment>` first")
        return 1
    return 0


#: format marker of the ``repro stats --format json`` document.
STATS_FORMAT = "repro.stats/1"


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <experiment>``: run once, uncached and traced,
    and print the hierarchical span tree (or its JSON document)."""
    experiments = _registry()
    if args.experiment not in experiments:
        print(f"unknown experiment {args.experiment!r} "
              f"(choose from {', '.join(experiments)})")
        return 2
    from repro.experiments.registry import ExperimentContext
    from repro.obs import metrics, trace
    from repro.obs.export import TraceReport, render_trace

    # store=None: a trace must observe real execution, not cache hits.
    ctx = ExperimentContext(full=args.full, processes=args.processes,
                            seed=args.seed, store=None,
                            chunk_bits=args.chunk_bits)
    metrics.REGISTRY.reset()
    with trace.collect(args.experiment) as root:
        text = experiments[args.experiment].run(ctx)
    report = TraceReport.from_run(args.experiment, root,
                                  metrics.REGISTRY.snapshot())
    if args.format == "json":
        print(report.to_json())
        return 0
    print(text)
    print()
    print(render_trace(root, title=f"trace: {args.experiment}"))
    if report.metrics.counters:
        print("counters:")
        for name, value in report.metrics.counters.items():
            print(f"  {name:<36s} {value}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: aggregate store contents and queue outcomes
    into one metrics view (text or a tagged JSON document)."""
    from repro.campaign.queue import JobQueue, STATES
    from repro.core.serialization import dump_tagged
    from repro.obs.export import format_bytes

    store = _make_store(args)
    queue = JobQueue(args.queue_dir)

    entries = store.entries()
    by_fn: dict[str, dict] = {}
    total_bytes = 0
    total_wall = 0.0
    for e in entries:
        total_bytes += e.size_bytes
        total_wall += e.wall_time
        agg = by_fn.setdefault(e.fn, {"results": 0, "bytes": 0,
                                      "wall_s": 0.0})
        agg["results"] += 1
        agg["bytes"] += e.size_bytes
        agg["wall_s"] += e.wall_time

    counts = queue.counts()
    stage_totals: dict[str, float] = {}
    jobs_wall = 0.0
    jobs_executed = 0
    jobs_cached = 0
    for state in ("done", "failed"):
        for job_id in queue.job_ids(state):
            outcome = queue.outcome(job_id) or {}
            jobs_wall += float(outcome.get("wall", 0.0))
            jobs_executed += int(outcome.get("executed", 0))
            jobs_cached += int(outcome.get("cached", 0))
            for name, wall in (outcome.get("stages") or {}).items():
                stage_totals[name] = (stage_totals.get(name, 0.0)
                                      + float(wall))
    workers = []
    for job_id in queue.job_ids("claimed"):
        beat = queue.read_heartbeat(job_id) or {}
        workers.append({
            "job_id": job_id,
            "worker": beat.get("worker", "?"),
            "done": beat.get("done", 0),
            "total": beat.get("total", 0),
            "eta_seconds": beat.get("eta_seconds"),
            "stages": beat.get("stages") or {},
        })

    payload = {
        "store": {"root": str(store.root), "results": len(entries),
                  "bytes": total_bytes, "wall_s": total_wall,
                  "by_fn": by_fn},
        "queue": {"root": str(queue.root), "counts": counts,
                  "executed": jobs_executed, "cached": jobs_cached,
                  "wall_s": jobs_wall, "stages": stage_totals,
                  "workers": workers},
    }
    if args.format == "json":
        print(dump_tagged(STATS_FORMAT, payload, indent=2))
        return 0
    print(f"store at {store.root}: {len(entries)} results, "
          f"{format_bytes(total_bytes)}, {total_wall:.3f}s recorded "
          "wall")
    for fn, agg in sorted(by_fn.items(),
                          key=lambda kv: -kv[1]["wall_s"]):
        print(f"  {fn:<44s} {agg['results']:>4d} results "
              f"{format_bytes(agg['bytes']):>10s} "
              f"{agg['wall_s']:>9.3f}s")
    print(f"queue at {queue.root}: "
          + " ".join(f"{s}={counts[s]}" for s in STATES)
          + f" executed={jobs_executed} cached={jobs_cached} "
            f"wall={jobs_wall:.3f}s")
    if stage_totals:
        print("  stages: " + _format_stages(stage_totals))
    for w in workers:
        eta = w["eta_seconds"]
        line = (f"  worker {w['worker']} [{w['job_id']}]: "
                f"done={w['done']}/{w['total']} "
                + (f"eta={eta:.1f}s" if eta is not None else "eta=--"))
        print(line)
        if w["stages"]:
            print("    stages: " + _format_stages(w["stages"]))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "queue":
            return cmd_queue(args)
        if args.command == "cache":
            return cmd_cache(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "stats":
            return cmd_stats(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
