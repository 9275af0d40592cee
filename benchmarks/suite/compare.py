"""Compare two result files of the suite, one row per (metric, workload).

    python3 benchmarks/suite/compare.py A.json B.json

``A`` is the baseline (the parent commit, or the first of two sets of
the same commit), ``B`` the candidate.  For every end-to-end metric on
every workload the row gives both medians and quartiles, the change as a
share of A's median (positive = worse), the metric's bound and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — better by more than the bound;
* ``within``     — neither;
* ``unresolved`` — a side's interquartile spread is wider than the bound,
  so a change cannot be told from no change — unless every B run beats
  every A run (``better``), or every B run loses and the medians differ
  by more than the bound (``worse``).

Exit status 1 if any row is ``worse``, any run of either file failed a
check, or same-seed state digests of one workload differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple


def worsening(a: float, b: float, better: str) -> float:
    """Change from ``a`` to ``b`` as a share of ``a``; positive is worse."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def spread(row: Dict[str, Any]) -> float:
    """Interquartile distance as a share of the median."""
    return (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    change = worsening(a["median"], b["median"], better)
    if max(spread(a), spread(b)) > bound:
        # Too noisy to call — unless the two sets of runs do not even overlap.
        sign = 1.0 if better == "lower" else -1.0
        a_values = [sign * v for v in a["values"]]
        b_values = [sign * v for v in b["values"]]
        if max(b_values) < min(a_values):
            return "better"
        if min(b_values) > max(a_values) and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Rows for every (metric, workload) both files hold, plus problems found."""
    problems: List[str] = []
    if a["end_to_end"] != b["end_to_end"]:
        problems.append("the two files were produced under different metric definitions")
    if a.get("quick") != b.get("quick") or a.get("seconds") != b.get("seconds"):
        problems.append("the two files were produced with different run settings")
    rows: List[Dict[str, Any]] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            problems.append(f"{workload}: missing from the second file")
            continue
        for label, entry in (("A", entry_a), ("B", entry_b)):
            if entry["fail_ratio"] > 0:
                problems.append(f"{workload}: fail_ratio {entry['fail_ratio']:g} in {label}")
            if not entry["digests_agree"]:
                problems.append(f"{workload}: same-seed digests differ within {label}")
        same_seed = a.get("seed") == b.get("seed")
        digests_equal = entry_a["digests"] == entry_b["digests"]
        if same_seed and not digests_equal:
            problems.append(f"{workload}: state digest differs between A and B")
        for metric in a["end_to_end"]:
            row_a = entry_a["end_to_end"][metric["name"]]
            row_b = entry_b["end_to_end"][metric["name"]]
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "bound": metric["bound"],
                "a": row_a,
                "b": row_b,
                "change": worsening(row_a["median"], row_b["median"], metric["better"]),
                "verdict": verdict(row_a, row_b, metric["better"], metric["bound"]),
            })
    return rows, problems


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<38} "
        f"{'B median [q1, q3]':<38} {'worse by':>9} {'bound':>6}  verdict"
    ]
    for row in rows:
        def cell(side: Dict[str, Any]) -> str:
            return (f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}] "
                    f"n={side['n']}")
        lines.append(
            f"{row['workload']:<15} {row['metric']:<12} {cell(row['a']):<38} "
            f"{cell(row['b']):<38} {row['change']:>+9.2%} {row['bound']:>6.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows, problems = compare(a, b)
    print(render(rows))
    for problem in problems:
        print(f"PROBLEM {problem}")
    bad = [row for row in rows if row["verdict"] == "worse"]
    return 1 if bad or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
