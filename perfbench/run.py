"""Time-to-verdict benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; without it the benchmark exits 2 before measuring anything.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
ones (and a Perfetto timeline under ``.perfbench/``).  ``--smoke`` makes one
set-up and times only the least number of operations a run times (100, in
whole rounds): a quick check that a workload runs end to end.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

WORKLOAD_NAMES = ("fleet-mixed", "reference-check")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _program_in_checkout() -> bool:
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().is_relative_to(ROOT / "src")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse(argv)
    if not _program_in_checkout():
        print(f"no program source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)

    import bench
    import fleet

    import_seconds = time.perf_counter() - STARTED
    settings = bench.Settings(
        seed=args.seed,
        seconds=0.0 if args.smoke else args.seconds,
        trace=bool(args.trace),
        setups=1 if args.smoke else 5,
    )
    try:
        outcome = bench.WORKLOADS[args.workload](settings)
    finally:
        fleet.stop_all()

    failures = [record for record in outcome.records if record.failure is not None]
    for record in failures[:5]:
        print(f"failed {record.op.kind}: {record.failure}", file=sys.stderr)
    if args.trace:
        values = bench.per_layer(outcome)
        units = bench.PER_LAYER_UNITS
        bench.OUT_DIR.mkdir(exist_ok=True)
        timeline = bench.OUT_DIR / f"{args.workload}-seed{args.seed}.perfetto.json"
        timeline.write_text(json.dumps(bench.tracing.perfetto(outcome.snapshots)))
        print(f"perfetto timeline: {timeline}", file=sys.stderr)
    else:
        values = bench.end_to_end(outcome, import_seconds)
        units = bench.END_TO_END_UNITS
    print(json.dumps({
        "correct": all(record.failure == bench.KNOWN_FAULT for record in failures),
        "attempted": len(outcome.records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
