"""Statistics, provenance and result plumbing shared by the e2e benchmark."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER: Tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ≥ 10 of ``count`` samples beyond it.

    ``None`` when not even the median qualifies (fewer than 20 samples).
    """
    best: Optional[float] = None
    for q in PERCENTILE_LADDER:
        if count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            best = q
    return best


def timing_summary(seconds: Sequence[float], scale: float = 1e3) -> Dict[str, Any]:
    """Median, highest supported tail percentile and sample count.

    ``scale`` converts seconds to the reported unit (1e3 → ms, 1e6 → µs).
    ``tail_q`` is ``None`` (and ``tail`` absent) when the sample is too
    small to support anything above the median; an empty sample reports
    ``n = 0`` only, so a missing timing is visible rather than zero.
    """
    count = len(seconds)
    summary: Dict[str, Any] = {"n": count}
    if not count:
        return summary
    summary["p50"] = percentile(seconds, 50.0) * scale
    summary["mean"] = sum(seconds) / count * scale
    tail_q = highest_supported_percentile(count)
    summary["tail_q"] = tail_q if tail_q and tail_q > 50.0 else None
    if summary["tail_q"] is not None:
        summary["tail"] = percentile(seconds, tail_q) * scale
    return summary


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (``ru_maxrss``)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / 1024.0 if sys.platform != "darwin" else peak / (1024.0 * 1024.0)


def git_sha() -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def provenance(seed: int, workload: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """The environment header stamped on every result."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    from repro.milp import MilpSolver

    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "solver_backend": MilpSolver().resolved_backend().value,
        "git_sha": git_sha(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
    }
