"""Small statistics and host-description helpers shared by the benchmark."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

__all__ = [
    "host_info",
    "median",
    "peak_rss_mb",
    "percentile",
    "quartiles",
    "spread",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (q in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ranked = sorted(values)
    pos = (len(ranked) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ranked) - 1)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0.0 when undefined)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_info(root: Path) -> Dict[str, object]:
    """Where and with what a result was measured."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(root),
    }
