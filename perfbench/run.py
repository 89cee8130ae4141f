"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload watdiv-joins-http --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced replay, and the spans go to
``.perfbench_work/traces/<workload>-seed<seed>.jsonl``.  The line before it
is a JSON object with the host fingerprint, sample counts and other context.
A wrong answer ends the run with exit status 1.  ``--scale tiny`` shrinks
every input for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    options = parser.parse_args(argv)
    if options.seconds < 1:
        parser.error("--seconds must be at least 1")
    if options.seed < 0:
        parser.error("--seed must be non-negative")

    # A terminated run still stops its worker processes and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from common import WrongAnswer
    from workloads import SCALES, WORKLOADS, RunArgs

    if options.workload not in WORKLOADS:
        parser.error(f"unknown workload {options.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_work"
    workdir = work / f"{options.workload}-{os.getpid()}"
    args = RunArgs(
        workload=options.workload,
        seed=options.seed,
        seconds=options.seconds,
        trace=bool(options.trace),
        scale=SCALES[options.scale],
        workdir=workdir,
        tracefile=work / "traces" / f"{options.workload}-seed{options.seed}.jsonl",
    )
    try:
        outcome = WORKLOADS[options.workload](args)
    except WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = dict(outcome.info, workload=args.workload, seed=args.seed, seconds=args.seconds,
                scale=options.scale, trace=options.trace)
    print(json.dumps({"info": info}, separators=(",", ":"), default=str))
    print(outcome.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
