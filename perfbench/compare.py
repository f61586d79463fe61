#!/usr/bin/env python3
"""Compare two result sets written by `run.py --out FILE`.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and end-to-end metric, prints both medians and flags a
change worse than the metric's bound in BENCHMARK.json. Refuses (exit 3)
when any two results come from different host fingerprints: a figure
from another host, compiler or thread setting says nothing about the
code. Exits 1 when a metric regressed beyond its bound, else 0.
"""

import json
import os
import sys

import benchstats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(sys.argv[1]), load(sys.argv[2])
    common = sorted(set(base) & set(new))
    if not common:
        sys.exit("no workload has untraced results in both sets")
    regressed = False
    for workload in common:
        records = base[workload] + new[workload]
        ref = records[0]["fingerprint"]
        for rec in records[1:]:
            try:
                benchstats.require_same_host(ref, rec["fingerprint"])
            except benchstats.HostMismatch as e:
                print("refusing to compare %s: results come from different "
                      "hosts or builds (%s)" % (workload, e), file=sys.stderr)
                sys.exit(3)
        print("%s (%d base runs, %d new runs)"
              % (workload, len(base[workload]), len(new[workload])))
        for m in metrics:
            name = m["name"]
            a = benchstats.p50([r["metrics"][name] for r in base[workload]])
            b = benchstats.p50([r["metrics"][name] for r in new[workload]])
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
            regressed = regressed or worse > m["bound"]
            print("  %-12s %12.6g -> %12.6g %-4s %+7.1f%% worse (bound "
                  "%.0f%%) %s" % (name, a, b, m["unit"], 100.0 * worse,
                                  100.0 * m["bound"], verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
