"""Smoke test of the benchmark itself, at tiny scale (under a minute).

Run from the repository root with either of::

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py -q

It checks that every workload runs in seconds and prints every metric named
in ``BENCHMARK.json`` with its unit, that the deterministic per-layer counts
repeat across two traced runs with one seed, that another ``--seed`` changes
the generated inputs, and that the benchmark refuses to run, printing no
result, in a directory holding only ``BENCHMARK.json`` and its own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SECONDS = 2


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(workload: str, seed: int, trace: int):
    done = _run(workload, seed, trace)
    assert done.returncode == 0, f"{workload} trace={trace} failed:\n{done.stderr}"
    lines = done.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return info, result


def _declared(section: str):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_every_workload_prints_every_metric_with_its_unit():
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            info, result = _result(workload, 1, trace)
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == _declared(section), f"{workload} trace={trace}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert {"nproc", "python", "numpy", "engine", "kernels", "seed"} <= set(info["host"])
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_deterministic_counts_repeat_and_seeds_change_inputs():
    sys.path.insert(0, str(HERE))
    from metrics import DETERMINISTIC

    for workload in WORKLOADS:
        first_info, first = _result(workload, 3, 1)
        again_info, again = _result(workload, 3, 1)
        other_info, _other = _result(workload, 4, 1)
        for name in DETERMINISTIC:
            assert first["metrics"][name] == again["metrics"][name], f"{workload} {name}"
        assert first_info["inputs_sha256"] == again_info["inputs_sha256"], workload
        assert first_info["inputs_sha256"] != other_info["inputs_sha256"], workload


def test_refuses_to_run_without_the_library():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(WORKLOADS[0], 1, 0, cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (
        test_every_workload_prints_every_metric_with_its_unit,
        test_deterministic_counts_repeat_and_seeds_change_inputs,
        test_refuses_to_run_without_the_library,
    ):
        test()
        print(f"ok  {test.__name__}", flush=True)
