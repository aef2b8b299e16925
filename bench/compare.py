"""Compare benchmark result files written by ``run.py --out``.

    python3 bench/compare.py --base results/base-*.json
    python3 bench/compare.py --base results/base-*.json --new results/new-*.json

With ``--base`` alone it prints, per workload and metric, the median, the
quartiles and the spread (interquartile distance over the median) of the
runs, and whether the spread stays under a third of the metric's bound in
``BENCHMARK.json``.  With ``--new`` it also prints the new median, its change
against the base median, and a verdict: ``worse`` when the new median is
worse than the base median by more than the bound, ``unresolved`` when the
base runs spread wider than the bound and not every new run is better than
every base run, ``better`` or ``same`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict:
    """workload -> metric -> list of values, one per result file."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text())
        for name, metric in record["result"]["metrics"].items():
            runs[record["workload"]][name].append(metric["value"])
    return runs


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(args.base)
    new = load(args.new) if args.new else {}

    for workload in sorted(base):
        print(f"== {workload}")
        header = f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}"
        print(header + (f" {'new':>12s} {'change':>8s} verdict" if new else " steady"))
        for name, values in base[workload].items():
            med, q1, q3, rel = spread(values)
            meta = declared.get(name, {})
            bound = meta.get("bound")
            line = f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:7.3f} "
            line += f"{bound:6.3f}" if bound is not None else f"{'-':>6s}"
            new_values = new.get(workload, {}).get(name)
            if new_values:
                new_med = statistics.median(new_values)
                sign = 1.0 if meta.get("better") == "higher" else -1.0
                change = sign * (new_med - med) / abs(med) if med else 0.0
                if bound is None:
                    verdict = "-"
                elif change < -bound:
                    verdict = "worse"
                elif rel > bound and not all(
                    sign * (n - b) > 0 for n in new_values for b in values
                ):
                    verdict = "unresolved"
                else:
                    verdict = "better" if change > rel else "same"
                line += f" {new_med:12.6g} {change:+8.3f} {verdict}"
            elif not new:
                line += " yes" if bound is None or rel < bound / 3 else " NO"
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
