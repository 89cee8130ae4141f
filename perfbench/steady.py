"""Steadiness check: run one workload N times and compare each end-to-end
metric's spread with its bound in ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload yago-churn --runs 10 --first-seed 1

Each run uses its own seed (``--first-seed``, the next, ...) and the
declared ``run_seconds``.  For every metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) as a share of the median, the bound, and ``ok`` when the spread is
below a third of the bound.  ``setup_s`` is listed but its spread is not
held to the bound.  Exits 1 when another spread is not below a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    options = parser.parse_args(argv)
    if options.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if part == "python3" else part for part in spec["command"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workload = options.workload

    values = {name: [] for name in bounds}
    for run in range(options.runs):
        seed = options.first_seed + run
        started = time.monotonic()
        result = run_once(command, workload, seed, seconds)
        took = time.monotonic() - started
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed={seed} took={took:.0f}s "
              + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    print(f"\n{workload}: {options.runs} runs of {seconds}s")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    steady = True
    for name, samples in values.items():
        q1, median, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / median if median else 0.0
        ok = spread < bounds[name] / 3
        if not ok and name != "setup_s":
            steady = False
        verdict = "ok" if ok else ("(set-up)" if name == "setup_s" else "TOO WIDE")
        print(f"{name:24} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bounds[name]:6.2f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
