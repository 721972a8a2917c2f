#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's reports.

    python3 perfbench/spread.py .bench_out/report-*-trace0.json

Groups the reports by workload and prints, for every numeric metric, the
median over the runs and the quartile spread (the distance between the
first and third quartile as a share of the median). End-to-end metrics
show their bound from BENCHMARK.json and are flagged when the spread is
not below a third of it, the steadiness a bound needs to be meaningful.
"""

import collections
import json
import os
import sys

import stats


def main(paths):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs = collections.defaultdict(list)
    for p in paths:
        with open(p) as f:
            r = json.load(f)
        runs[r["workload"]].append(r)
    for workload, reports in sorted(runs.items()):
        print(f"{workload}: {len(reports)} runs, seeds "
              f"{sorted(r['seed'] for r in reports)}")
        values = collections.defaultdict(list)
        for r in reports:
            for name, m in r["metrics"].items():
                if isinstance(m["value"], (int, float)):
                    values[name].append(m["value"])
        for name, v in sorted(values.items()):
            if len(v) < 2 or stats.median(v) == 0:
                continue
            spread = stats.quartile_spread(v)
            line = f"  {name:32s} median {stats.median(v):<12.6g} spread {spread:.3f}"
            if name in bounds:
                flag = "" if spread < bounds[name] / 3 else "  <-- not below bound/3"
                line += f"  bound {bounds[name]}{flag}"
            print(line)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
