"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

Each file is what ``run.py --output FILE`` appends to: a JSON list of run
reports.  Per workload and end-to-end metric this prints both medians, B's
median as a ratio of A's (A is the base), the bound from ``BENCHMARK.json``
and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       it is;
``unresolved``  a side's run-to-run spread (distance between the first and
                third quartile of its runs, as a share of their median) is
                wider than the bound, so the comparison decides nothing.

Runs of one workload and seed must also agree on ``result_digest`` and no
run may have failed requests.  Exits non-zero unless every line is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def by_workload(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for report in json.loads(Path(path).read_text()):
        runs[report["workload"]].append(report)
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, other = by_workload(argv[0]), by_workload(argv[1])
    problems = 0
    print(f"{'workload':18s} {'metric':20s} {'A median':>12s} {'B median':>12s} {'B/A':>7s} "
          f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in (entry["name"] for entry in SPEC["workloads"]):
        if workload not in base or workload not in other:
            continue
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            left = [report["end_to_end"][name] for report in base[workload]]
            right = [report["end_to_end"][name] for report in other[workload]]
            a, b = statistics.median(left), statistics.median(right)
            change = b / a - 1.0 if metric["better"] == "lower" else a / b - 1.0
            if max(spread(left), spread(right)) > bound:
                verdict = "unresolved"
            else:
                verdict = "worse" if change > bound else "ok"
            problems += verdict != "ok"
            print(f"{workload:18s} {name:20s} {a:12.4f} {b:12.4f} {b / a:7.3f} "
                  f"{spread(left):9.1%} {spread(right):9.1%} {bound:6.0%}  {verdict}")
        digests = defaultdict(set)
        for report in base[workload] + other[workload]:
            digests[report["seed"]].add(report["result_digest"])
        failed = sum(report["failed"] for report in base[workload] + other[workload])
        mismatched = sorted(seed for seed, found in digests.items() if len(found) > 1)
        if mismatched or failed:
            problems += 1
        digest = f"differs for seeds {mismatched}" if mismatched else "equal per seed"
        print(f"{workload:18s} result_digest {digest}; {failed} failed requests")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
