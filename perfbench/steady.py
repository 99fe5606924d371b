"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed (seeds ``first-seed .. first-seed+runs-1``)
for each workload, as separate processes from the checkout root, each for
the ``run_seconds`` of ``BENCHMARK.json``.  Prints for every end-to-end
metric each run's value, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread -- the
interquartile distance as a share of the median -- against the metric's
bound.  Exits 1 when any spread is wider than its bound, or when the share
of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, failed share "
              f"{', '.join(str(s) for s in sorted(shares))}, correct {correct}")
        if len(shares) != 1 or not correct:
            steady = False
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            held = spread <= bound
            steady = steady and held
            print(f"  {name:16} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f} / bound {bound:.2f} {'ok' if held else 'WIDE'}")
            print("      " + " ".join(f"{value:.4g}" for value in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
