"""Measurement helpers shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Sequence


class WrongAnswer(Exception):
    """The program returned an answer that differs from the expected one."""


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under ``root``."""
    return sum(entry.stat().st_size for entry in root.rglob("*") if entry.is_file())


def fingerprint(seed: int, dual) -> Dict[str, object]:
    """What the numbers depend on besides the code: host, toolchain, engine."""
    import numpy

    from repro.relstore import numpy_enabled

    engine = getattr(dual.relational, "engine", "unknown")
    if engine == "columnar":
        kernels = "numpy" if numpy_enabled() else "stdlib"
    else:
        kernels = "row"  # the row engines run no batch kernels
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": engine,
        "kernels": kernels,
        "seed": seed,
    }


@dataclass
class Outcome:
    """What one run measured, before it is printed."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    info: Dict[str, object] = field(default_factory=dict)

    def result_line(self) -> str:
        """The result line; only runs whose answers all checked out print one."""
        return json.dumps(
            {
                "correct": True,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            },
            separators=(",", ":"),
        )
