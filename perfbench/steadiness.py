"""Steadiness report: run the suite N times, print the spread of every metric.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 10 --sets 2 --workloads cosim

Each run is one ``perfbench/run.py`` invocation with its own seed
(``--first-seed``, ``--first-seed + 1``, ...).  For every metric of
every workload the report gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and IQR/median, next
to the metric's bound in ``BENCHMARK.json``: a metric is ``steady``
when its spread is below a third of the bound.  With ``--sets 2`` the
runs are made twice, one set after the other, and the report adds how
far the second set's median moved from the first's, in the metric's
worse direction.  The exit code is 1 when an end-to-end spread exceeds
its bound, a set-to-set move exceeds its bound, or a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, IQR/median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, ((q3 - q1) / median if median else 0.0)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                result = run_once(workload, args.first_seed + i,
                                  seconds, args.trace)
                ok &= result["correct"] and result["failed"] == 0
                results.append(result)
                print(f"{workload} set {s + 1} run {i + 1}: " + " ".join(
                    f"{k}={v['value']:.5g}"
                    for k, v in list(result["metrics"].items())[:4]),
                    file=sys.stderr, flush=True)
            sets.append(results)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{seconds} s each")
        print(f"  {'metric':<28}{'unit':>7}{'median':>13}{'q1':>13}"
              f"{'q3':>13}{'iqr/med':>9}{'bound':>7}  verdict")
        for m in declared:
            bound = m.get("bound")
            medians = []
            for results in sets:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                median, q1, q3, rel = spread(values)
                medians.append(median)
                verdict = ""
                if bound is not None:
                    verdict = ("steady" if rel < bound / 3
                               else "within bound" if rel <= bound
                               else "OVER BOUND")
                    ok &= rel <= bound
                print(f"  {m['name']:<28}{m['unit']:>7}{median:>13.5g}"
                      f"{q1:>13.5g}{q3:>13.5g}{rel:>9.3f}"
                      f"{'' if bound is None else bound:>7}  {verdict}")
            if len(medians) == 2 and bound is not None:
                moved = worse_by(medians[0], medians[1], m["better"])
                agree = moved <= bound
                ok &= agree
                print(f"  {'':<28}{'':>7}  set 2 vs set 1: worse by "
                      f"{moved:+.3f} ({'agree' if agree else 'DISAGREE'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
