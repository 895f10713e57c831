"""Sensitivity check: a deliberate ~20% slowdown of one layer must show.

    python3 perfbench/sensitivity.py --runs 5

For each case the benchmark is run with every call of one wrapped
layer made ``1 + layers.SLOW_FACTOR`` times as long (``run.py --slow``,
a busy wait inside the layer's wrapper; no program file is touched), and
without it, alternating the two so that machine phases hit both
sides alike.  A case passes when

* the layer's share of the traced repetition (its per-layer self time
  over the repetition's wall time) rises by more than a quarter of the
  injected factor, one traced run per side.  The share, not the raw
  seconds: traced repetitions run without the reference canary, and
  the share cancels the machine's speed;
* the workload that runs the layer gets worse on ``wall_ref`` by more
  than its bound (median over ``--runs`` runs per side);
* a bypass workload that never calls the layer stays within the
  bound.

Cases: ``spice.newton`` (cosim moves, ber does not) and ``link.afe``
(mui moves, cosim does not).  Exit code 0 when every case passes.
The ``link.afe`` case fails at the declared bound: the AFE is about
43% of mui, so its 20% slowdown moves mui by about 9%, inside the
bound (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import SLOW_FACTOR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the gated end-to-end timing a layer slowdown must move.
GATED = "wall_ref"

#: ``(layer span, its per-layer metric, workload that runs it, bypass
#: workload)``.
CASES = (("spice.newton", "spice.newton.s", "cosim", "ber"),
         ("link.afe", "link.afe.s", "mui", "cosim"))


def run(workload: str, seed: int, seconds: int, trace: int,
        slow: str | None) -> dict[str, float]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if slow:
        argv += ["--slow", slow]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{argv} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def paired_medians(workload, layer, seconds, args) -> tuple[float, float]:
    """Median :data:`GATED` metric without and with the slowdown."""
    base, slow = [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        sides = [(base, None), (slow, layer)]
        if i % 2:
            sides.reverse()
        for out, slow_layer in sides:
            out.append(run(workload, seed, seconds, 0,
                           slow_layer)[GATED])
    return statistics.median(base), statistics.median(slow)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=200)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == GATED)

    passed = True
    for layer, layer_metric, target, bypass in CASES:
        print(f"\n{layer} slowed by {SLOW_FACTOR:.0%}")
        shares = []
        for slow in (None, layer):
            m = run(target, args.first_seed, seconds, 1, slow)
            shares.append(m[layer_metric] / m["trace.wall_s"])
        rise = shares[1] / shares[0] - 1.0
        ok = rise > SLOW_FACTOR / 4
        passed &= ok
        print(f"  {target}: {layer_metric} share of the repetition "
              f"{shares[0]:.3f} -> {shares[1]:.3f} ({rise:+.1%}) "
              f"{'moves' if ok else 'DOES NOT MOVE'}")
        # The slowdown adds SLOW_FACTOR of each call's whole duration,
        # so the workload gets worse by about share x SLOW_FACTOR, or
        # more when the layer's calls contain other wrapped layers (the
        # share counts self time only).  Below the bound, the case
        # cannot pass.
        print(f"  {target}: end-to-end move implied by the self-time "
              f"share: {shares[0] * SLOW_FACTOR:+.1%}")
        for workload, should_cross in ((target, True), (bypass, False)):
            base, slow = paired_medians(workload, layer, seconds, args)
            worse = slow / base - 1.0
            crossed = worse > bound
            ok = crossed == should_cross
            passed &= ok
            print(f"  {workload}: {GATED} worse by {worse:+.1%} "
                  f"(bound {bound:.0%}) -> "
                  f"{'crosses' if crossed else 'inside'}"
                  f"{'' if ok else '  UNEXPECTED'}")
    print("\nsensitivity check", "passed" if passed else "FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
