#!/usr/bin/env python3
"""Compare two sets of perfbench results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a record run.py saved under .bench_build/results/ (stamp plus
result). Per workload and end-to-end metric it prints both medians, their
quartile spreads and the change, and flags a regression when the new median
is worse than the base median by more than the metric's bound.

Results from different hosts, core counts, compilers, or from non-Release or
sanitizer builds are not compared: the script reports a host mismatch and
exits with status 3. Exit status 1 means a regression, 0 none.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTITY = ("host", "nproc", "machine", "compiler", "build_type", "sanitizer")


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def host_problems(records):
    problems = []
    first = records[0]["stamp"]
    for r in records:
        s = r["stamp"]
        if s.get("build_type") != "Release" or s.get("sanitizer") != "none":
            problems.append(f"{s.get('workload')} seed {s.get('seed')}: "
                            f"{s.get('build_type')} build, sanitizer "
                            f"{s.get('sanitizer')}")
        for key in IDENTITY:
            if s.get(key) != first.get(key):
                problems.append(f"{key}: {first.get(key)} vs {s.get(key)}")
    return sorted(set(problems))


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    problems = host_problems(base + new)
    if problems:
        print("host mismatch; not comparing:")
        for p in problems:
            print("  " + p)
        return 3

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    workloads = sorted({r["stamp"]["workload"] for r in base + new})
    for w in workloads:
        print(f"{w}:")
        for m in spec["end_to_end"]:
            b = [r["result"]["metrics"][m["name"]]["value"] for r in base
                 if r["stamp"]["workload"] == w and r["stamp"]["trace"] == 0]
            n = [r["result"]["metrics"][m["name"]]["value"] for r in new
                 if r["stamp"]["workload"] == w and r["stamp"]["trace"] == 0]
            if not b or not n:
                print(f"  {m['name']}: missing on one side")
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            regressed = regressed or verdict != "ok"
            print(f"  {m['name']:<12} base {mb:.6g} (spread {spread(b):.3f}, "
                  f"n={len(b)})  new {mn:.6g} (spread {spread(n):.3f}, "
                  f"n={len(n)})  change {change:+.3f}  bound {m['bound']}  "
                  f"{verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
