"""Start one process of the program, optionally with the benchmark's tracing.

    python3 perfbench/launcher.py [--trace-out FILE --role NAME] -- <repro CLI args>

Without ``--trace-out`` this is ``repro <args>``.  With it, the entry points
listed in ``tracing.install`` are wrapped first; ``SIGUSR1`` forgets what was
recorded so far (the benchmark sends it when its timed phase starts), and at
exit the recording is written to FILE as JSON.  ``SIGTERM`` drains the
process the way the program itself handles it: ``repro serve`` drains
in-flight work, and ``repro store serve`` (which has no handler of its own)
stops as on Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--role", default="program")
    parser.add_argument("program_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    program_args = args.program_args
    if program_args and program_args[0] == "--":
        program_args = program_args[1:]

    from repro.cli import main as repro_main

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # `repro serve` installs its own drain handler on the event loop, which
    # takes precedence; `repro store serve` relies on KeyboardInterrupt.
    signal.signal(signal.SIGTERM, interrupt)
    if args.trace_out is None:
        return repro_main(program_args)

    import tracing

    tracing.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracing.reset())
    try:
        return repro_main(program_args)
    finally:
        out = Path(args.trace_out)
        out.write_text(json.dumps(tracing.snapshot(os.getpid(), args.role)))


if __name__ == "__main__":
    sys.exit(main())
