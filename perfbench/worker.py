"""One workload in one fresh interpreter (spawned by ``run.py``).

Protocol on stdout, one JSON object per line:

1. ``{"ready": ..., "import_s": ..., "warmup_s": ...}`` once the
   interpreter has imported the harnesses and finished the warm-up
   repetition - the parent times set-up up to this line;
2. after the timed repetitions (``--seconds``, tracing off, measured
   by a :class:`refkernel.ReferenceClock`) and, with ``--trace 1``,
   the traced ones, one result object; then the worker exits.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import repro.experiments  # noqa: E402,F401  (timed as setup.import.s)
from repro.campaign.queue import JobQueue, JobSpec  # noqa: E402
from repro.campaign.shard import ShardedResultStore  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import layers  # noqa: E402
from refkernel import ReferenceClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: timed repetitions per interpreter (at least; more while they fit
#: in ``--seconds``).
MIN_TIMED = 2

#: traced repetitions (at least; more while they fit in ``--seconds``).
MIN_TRACED = 3
MAX_TRACED = 50


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Repetitions:
    """Runs repetitions of one workload - each its harness calls on a
    fresh result store under *scratch* - and checks every output."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.seeds = workload.seeds(seed)
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.items = 0.0

    def calls(self, store) -> list:
        return [self.workload.run(store, s) for s in self.seeds]

    def run(self, clock: ReferenceClock | None = None,
            recorder: layers.Recorder | None = None) -> dict:
        """One repetition: ``wall_s``, and with a *clock* also ``ref``
        (reference-kernel calls) and ``cpu_s``.  With a *recorder*, the
        calls are its ``repetition`` root span and the store is kept
        for the caller (``root``); otherwise the store is deleted."""
        gc.collect()
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        store = ShardedResultStore(root)
        out = {"root": root}
        if recorder is not None:
            index = recorder.open("repetition")
        start = time.perf_counter()
        if clock is None:
            results = self.calls(store)
        else:
            out["ref"], out["cpu_s"], results = clock.measure(
                lambda: self.calls(store))
        out["wall_s"] = time.perf_counter() - start
        if recorder is not None:
            recorder.close(index)
        self.attempted += 1
        failed = self.workload.check(results)
        self.failed += bool(failed)
        self.failures += [f for f in failed if f not in self.failures]
        self.items = sum(self.workload.items(r) for r in results)
        if recorder is None:
            shutil.rmtree(root)
        return out


def store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def queue_claim_s(scratch: Path, cycles: int = 5) -> float:
    """Median JobQueue submit -> claim -> finish round trip."""
    root = Path(tempfile.mkdtemp(prefix="queue-", dir=scratch))
    try:
        queue = JobQueue(root)
        walls = []
        for _ in range(cycles):
            start = time.perf_counter()
            queue.submit(JobSpec(experiment="fig6"))
            job_id, _spec = queue.claim("perfbench")
            queue.finish(job_id, {})
            walls.append(time.perf_counter() - start)
        return statistics.median(walls)
    finally:
        shutil.rmtree(root)


def traced_phase(reps: Repetitions, seconds: float
                 ) -> tuple[dict, list[dict]]:
    """Per-layer metrics (median over traced repetitions) and the
    exact counts of every traced repetition.

    Untraced and traced repetitions alternate, so ``trace.overhead``
    compares neighbours in time.
    """
    recorder = layers.Recorder()
    samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_TRACED or (
            time.perf_counter() < deadline and len(samples) < MAX_TRACED):
        untraced = reps.run()["wall_s"]
        recorder.install()
        try:
            recorder.reset()
            rep = reps.run(recorder=recorder)
            m = layers.layer_metrics(recorder)
            # Warm replay: the same calls against their own store, now
            # all hits.
            recorder.reset()
            reps.calls(ShardedResultStore(rep["root"]))
            m["campaign.store.get_hit.s"] = layers.self_times(
                recorder.spans)["campaign.store.get_hit"]
        finally:
            recorder.uninstall()
        m["campaign.store.bytes"] = store_bytes(rep["root"])
        m["trace.overhead"] = rep["wall_s"] / untraced
        shutil.rmtree(rep["root"])
        samples.append(m)
    metrics = {k: statistics.median(s[k] for s in samples)
               for k in samples[0]}
    metrics["campaign.queue.claim.s"] = queue_claim_s(reps.scratch)
    counts = [{k: s[k] for k in layers.EXACT_COUNTS} for s in samples]
    return metrics, counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", type=Path, required=True)
    p.add_argument("--slow", default=None,
                   help="layer span name to slow down (sensitivity)")
    args = p.parse_args(argv)

    if args.slow:
        layers.slow_down(args.slow)
    workload = WORKLOADS[args.workload]
    reps = Repetitions(workload, args.seed, args.scratch)
    warmup_s = reps.run()["wall_s"]
    emit({"ready": True, "import_s": _IMPORT_S, "warmup_s": warmup_s})

    samples = []
    clock = ReferenceClock(workload.kernel, args.scratch)
    try:
        deadline = time.perf_counter() + args.seconds
        while len(samples) < MIN_TIMED or time.perf_counter() < deadline:
            rep = reps.run(clock)
            samples.append([rep["ref"], rep["cpu_s"], rep["wall_s"]])
    finally:
        clock.close()
    out = {"samples": samples, "items": reps.items,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        out["layers"], out["counts"] = traced_phase(reps, args.seconds)
    out.update(attempted=reps.attempted, failed=reps.failed,
               failures=reps.failures)
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
