"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ber --seed 7 --seconds 10 --trace 0

Each invocation runs the workload's ``interpreters`` fresh interpreters
(``perfbench/worker.py``, single-threaded BLAS) one after another.
Every one imports the harnesses and runs one warm-up repetition, which
times set-up, then runs closed-loop repetitions with tracing off for
its share of ``--seconds``, timed against a reference-kernel canary on
the same vCPU (``refkernel.py``).  With ``--trace 1`` the last one
then runs the traced repetitions.  The report goes to stdout: a human-readable table, then,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` - the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: seconds all workers of one invocation may take, beyond
#: ``--seconds``, before the one running is killed.
WORKER_GRACE = 120.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class Worker:
    """One spawned worker interpreter and its stdout protocol."""

    def __init__(self, argv: list[str], deadline: float):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
        # A hung worker is killed at the deadline; its stdout then ends
        # and line() raises.
        self.watchdog = threading.Timer(
            max(1.0, deadline - self.started), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def line(self) -> dict:
        text = self.proc.stdout.readline()
        if not text:
            self.finish()
            raise RuntimeError("worker exited without a report")
        return json.loads(text)

    def finish(self) -> None:
        self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()
        if self.proc.returncode:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")


def run_workers(args, interpreters: int, scratch: Path) -> list[dict]:
    """Run the workers one after another, each measuring its share of
    ``--seconds``; each report gains the worker's ``setup_s`` (spawn to
    ready line)."""
    share = args.seconds / interpreters
    deadline = time.perf_counter() + args.seconds + WORKER_GRACE
    reports = []
    for i in range(interpreters):
        last = i == interpreters - 1
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(share),
                "--trace", str(args.trace if last else 0),
                "--scratch", str(scratch)]
        if args.slow:
            argv += ["--slow", args.slow]
        worker = Worker(argv, deadline)
        try:
            ready = worker.line()
            setup_s = time.perf_counter() - worker.started
            report = worker.line()
        finally:
            worker.finish()
        reports.append(dict(report, setup_s=setup_s, **ready))
    return reports


def source_digest() -> str:
    """Digest of everything the exact counts depend on: the program
    sources and the benchmark's workload shapes and wrapped layers."""
    digest = hashlib.sha256()
    paths = sorted(SRC.rglob("*.py")) + [HERE / "workloads.py",
                                         HERE / "layers.py"]
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: list[dict],
                 state_dir: Path) -> list[str]:
    """Exact counts must repeat across the traced repetitions of this
    run and across runs of the same source with the same seed (the
    first run's counts are kept under *state_dir*, keyed by
    :func:`source_digest`)."""
    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"exact counts differ between repetitions: "
                        f"{counts}")
    path = state_dir / f"counts-{source_digest()}-{workload}-{seed}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded != counts[0]:
            problems.append(f"exact counts {counts[0]} differ from an "
                            f"earlier run's {recorded}")
    else:
        path.write_text(json.dumps(counts[0], sort_keys=True))
    return problems


def pooled(reports: list[dict], column: int, calls: int) -> list[float]:
    """One column of every worker's per-repetition samples, per harness
    call: 0 = reference-kernel calls, 1 = CPU seconds."""
    return [row[column] / calls for r in reports for row in r["samples"]]


def per_interpreter(reports: list[dict], calls: int) -> list[float]:
    """Median reference-kernel calls per harness call, per worker."""
    return [statistics.median(pooled([r], 0, calls)) for r in reports]


def end_to_end(reports: list[dict], workload) -> dict[str, float]:
    """The gated metrics of ``BENCHMARK.json``: set-up time, the
    kernel-normalized time of one harness call (the mean over the
    interpreters of each one's median: a process's memory layout can
    move all of its repetitions together), peak RSS."""
    return {"setup_s": statistics.median(r["setup_s"] for r in reports),
            "wall_ref": statistics.mean(
                per_interpreter(reports, workload.calls)),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in reports)}


def raw_timings(reports: list[dict], workload
                ) -> list[tuple[str, float, str]]:
    """Un-normalized timings, printed beside the gated metrics.  CPU
    seconds, because the timed repetitions share their vCPU with the
    reference canary (their wall time is about twice that)."""
    cpu = statistics.median(pooled(reports, 1, workload.calls))
    items = reports[-1]["items"] / workload.calls
    return [("cpu_s", cpu, "s"), (workload.throughput, items / cpu, "1/s")]


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<30} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--slow", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    # Byte-compile up front: the first import of a fresh checkout would
    # otherwise charge compilation to the first set-up sample.
    if not compileall.compile_dir(str(SRC), quiet=2):
        print("perfbench: src does not compile", file=sys.stderr)
        return 2

    state_dir = ROOT / ".perfbench"
    state_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state_dir) as scratch:
        try:
            reports = run_workers(
                args, WORKLOADS[args.workload].interpreters, Path(scratch))
        except (RuntimeError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1

    failures = sorted({f for r in reports for f in r["failures"]})
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    workload = WORKLOADS[args.workload]
    e2e = end_to_end(reports, workload)
    last = reports[-1]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print_table(f"{args.workload} (seed {args.seed}): "
                f"{sum(len(r['samples']) for r in reports)} timed "
                f"repetitions of {workload.calls} harness call(s) in "
                f"{len(reports)} interpreters, {workload.kernel} "
                "reference kernel",
                [(k, v, units[k]) for k, v in e2e.items()]
                + raw_timings(reports, workload)
                + [("fail_ratio", failed / attempted, "1")])
    print("  wall_ref per interpreter: " + " ".join(
        f"{v:.5g}" for v in per_interpreter(reports, workload.calls)))
    if args.trace:
        layer = dict(last["layers"])
        layer["setup.import.s"] = statistics.median(
            r["import_s"] for r in reports)
        layer["setup.warmup.s"] = statistics.median(
            r["warmup_s"] for r in reports)
        failures += check_counts(args.workload, args.seed,
                                 last["counts"], state_dir)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print_table("per-layer (median over traced repetitions)",
                    [(k, layer[k], units[k]) for k in units])
        metrics = {k: {"value": layer[k], "unit": units[k]}
                   for k in units}
    else:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in units.items()}
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
