"""Compare two sets of benchmark runs, one row per workload x metric.

    python3 benchmarks/e2e/compare.py base.jsonl change.jsonl
    python3 benchmarks/e2e/compare.py runs.jsonl            # spreads only

Each file holds the rows ``run.py --out FILE`` appends (one per run).  For
every end-to-end metric of ``BENCHMARK.json`` the tool prints both
medians, each set's spread (distance between the first and third quartile
of its runs as a share of their median — what the acceptance driver
computes), the relative change in the metric's "better" direction, and a
verdict against the metric's own bound:

- ``ok``          the change's median is no worse than the base's by more than the bound;
- ``worse``       it is, and the spread is narrower than the bound;
- ``unresolved``  a spread is wider than the bound, so the sets cannot tell.

Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values of the untraced runs in ``path``."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["trace"] or not row["correct"]:
                continue
            for name, metric in row["metrics"].items():
                values[row["workload"], name].append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    print(f"{'workload':14s} {'metric':22s} {'base':>12s} {'spread':>7s} "
          f"{'change':>12s} {'spread':>7s} {'worse by':>9s} {'bound':>6s}  verdict")
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = base.get((workload, metric["name"]))
            if not a:
                continue
            med_a, spread_a = statistics.median(a), spread(a)
            line = f"{workload:14s} {metric['name']:22s} {med_a:12.4f} {spread_a:7.3f}"
            if change is None:
                verdict = "ok" if spread_a <= metric["bound"] else "unresolved"
                print(f"{line} {'':12s} {'':7s} {'':9s} {metric['bound']:6.2f}  {verdict}")
                continue
            b = change.get((workload, metric["name"]), [])
            if not b:
                print(f"{line}  missing from {argv[1]}")
                any_worse = True
                continue
            med_b, spread_b = statistics.median(b), spread(b)
            worse_by = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            if worse_by <= metric["bound"]:
                verdict = "ok"
            elif max(spread_a, spread_b) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse"
                any_worse = True
            print(f"{line} {med_b:12.4f} {spread_b:7.3f} {worse_by:+9.3f} "
                  f"{metric['bound']:6.2f}  {verdict}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
