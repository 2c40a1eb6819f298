#!/usr/bin/env python3
"""Compares two sets of benchmark-of-record runs.  Reports only; never gates.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records, one JSON object per line, as perfbench/run.py
appends them to .bench_build/results/results.jsonl.  An untraced record's
figures without a bound are compared as report.<name>, as the traced run
names them.  For every workload and
metric the tool prints both sides' median and quartiles (Python's
statistics.quantiles(values, n=4)), the change of the median as a share of
the base median, and, for end-to-end metrics, that change against the
metric's bound from BENCHMARK.json, signed so that positive means worse.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "workload" not in rec or "metrics" not in rec:
                continue
            trace = int(rec.get("trace", 0))
            metrics = dict(rec["metrics"])
            if trace == 0:  # a traced record has them in "metrics" already
                for name, m in rec.get("report", {}).items():
                    metrics["report." + name] = m
            for name, m in metrics.items():
                key = (rec["workload"], trace, name)
                runs.setdefault(key, []).append(m["value"])
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bound = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    base, change = load(argv[1]), load(argv[2])
    print("%-15s %-34s %5s %12s %25s %12s %25s %9s %s" %
          ("workload", "metric", "runs", "base median", "base q1..q3",
           "change med", "change q1..q3", "worse by", "vs bound"))
    for key in sorted(set(base) | set(change)):
        workload, _, name = key
        if key not in base or key not in change:
            print("%-15s %-34s only in %s" %
                  (workload, name, "base" if key in base else "change"))
            continue
        bm, b1, b3 = summary(base[key])
        cm, c1, c3 = summary(change[key])
        direction = bound.get(name, (None, better.get(name, "lower")))[1]
        worse = (cm - bm) / abs(bm) if bm else 0.0
        if direction == "higher":
            worse = -worse
        verdict = ""
        if name in bound:
            b = bound[name][0]
            verdict = "exceeds %.0f%%" % (100 * b) if worse > b else "within %.0f%%" % (100 * b)
        print("%-15s %-34s %2d/%-2d %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %+8.1f%% %s" %
              (workload, name, len(base[key]), len(change[key]), bm, b1, b3,
               cm, c1, c3, 100 * worse, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
