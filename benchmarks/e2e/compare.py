"""Compare sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json            # medians and spreads
    python3 benchmarks/e2e/compare.py A.json B.json     # B against A

Inputs are artifacts written by ``run.py --all --out`` (any number of
seeds).  Per workload × end-to-end metric, one row: each side's median,
its spread (distance between the first and third quartile as a share of
the median), the relative difference signed so that *positive means B is
worse*, and a verdict against the metric's bound:

* ``ok`` — B's median is no worse than A's by more than the bound,
* ``REGRESSION`` — it is,
* ``unresolved`` — a side's spread exceeds the bound, or a side has a
  single run and so no spread at all: the medians cannot separate a change
  of that size from run-to-run noise (unless every run of B is better than
  every run of A, which reads ``ok``),
* ``reported`` — a metric the benchmark prints but does not bound
  (throughput, workload-specific timings): medians, spreads and the change.

Exit code 1 when any row is a regression, or, with one input, when any
spread exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> values`` over the untraced runs of an artifact.

    Beside the bounded end-to-end metrics this picks up the reported,
    unbounded ones from each run's ``detail``: ``throughput_ops_s`` and the
    median of every workload-specific timing (``retire_ms.p50``, …).
    """
    with open(path) as handle:
        artifact = json.load(handle)
    runs = artifact["runs"] if "runs" in artifact else [artifact]
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if run["provenance"]["trace"]:
            continue
        metrics = grouped.setdefault(run["provenance"]["workload"], {})
        for name, entry in run["metrics"].items():
            metrics.setdefault(name, []).append(float(entry["value"]))
        for name, value in run.get("detail", {}).items():
            if isinstance(value, dict) and "p50" in value:
                metrics.setdefault(name + ".p50", []).append(float(value["p50"]))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics.setdefault(name, []).append(float(value))
    return grouped


def _reported(a: Dict[str, List[float]], bounded: List[str]) -> List[Dict[str, Any]]:
    """Pseudo-specs for the unbounded metrics of one workload."""
    return [
        {
            "name": name,
            "bound": None,
            "better": "higher" if name.startswith("throughput") else "lower",
        }
        for name in a
        if name not in bounded
    ]


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median; ``None`` below 2 runs."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else float("inf")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a`` as a share of ``a`` (negative = better)."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _fmt_spread(value: Optional[float]) -> str:
    return "   n=1" if value is None else "%6.3f" % value


def compare(
    a: Dict[str, Dict[str, List[float]]],
    b: Optional[Dict[str, Dict[str, List[float]]]],
    spec: List[Dict[str, Any]],
) -> Tuple[List[str], bool]:
    rows: List[str] = []
    failed = False
    bounded = [metric["name"] for metric in spec]
    for workload in a:
        for metric in spec + _reported(a[workload], bounded):
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            values_a = a[workload].get(name)
            if not values_a:
                continue
            median_a = statistics.median(values_a)
            spread_a = spread(values_a)
            if bound is None:
                # Reported, not bounded: medians, spreads and the change.
                values_b = (b or {}).get(workload, {}).get(name)
                row = "%-18s %-24s %12.5g %s" % (
                    workload, name, median_a, _fmt_spread(spread_a))
                if values_b:
                    median_b = statistics.median(values_b)
                    row += " %12.5g %s  %+7.3f" % (
                        median_b, _fmt_spread(spread(values_b)),
                        worse_by(median_a, median_b, better))
                rows.append(row + "  reported")
                continue
            if b is None:
                noisy = spread_a is not None and spread_a > bound
                failed = failed or noisy
                rows.append(
                    "%-18s %-24s %12.5g %s  bound %.2f  %s"
                    % (workload, name, median_a, _fmt_spread(spread_a), bound,
                       "SPREAD>BOUND" if noisy else "ok")
                )
                continue
            values_b = b.get(workload, {}).get(name)
            if not values_b:
                continue
            median_b = statistics.median(values_b)
            spread_b = spread(values_b)
            delta = worse_by(median_a, median_b, better)
            if better == "lower":
                separated = max(values_b) < min(values_a)
            else:
                separated = min(values_b) > max(values_a)
            noisy = any(s is None or s > bound for s in (spread_a, spread_b))
            if noisy and not separated:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "REGRESSION"
                failed = True
            else:
                verdict = "ok"
            rows.append(
                "%-18s %-24s %12.5g %s %12.5g %s  %+7.3f  bound %.2f  %s"
                % (workload, name, median_a, _fmt_spread(spread_a), median_b,
                   _fmt_spread(spread_b), delta, bound, verdict)
            )
    return rows, failed


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__ or "")
        return 2
    with open(BENCHMARK_JSON) as handle:
        spec = json.load(handle)["end_to_end"]
    a = load_runs(argv[0])
    b = load_runs(argv[1]) if len(argv) == 2 else None
    if b is None:
        print("%-18s %-24s %12s %6s" % ("workload", "metric", "median", "spread"))
    else:
        print(
            "%-18s %-24s %12s %6s %12s %6s  %7s"
            % ("workload", "metric", "A median", "spread", "B median", "spread", "worse")
        )
    rows, failed = compare(a, b, spec)
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
