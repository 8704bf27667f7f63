#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) into
.bench_build/, runs one workload, stamps the result with the host and build,
saves it under .bench_build/results/ and prints it. The last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (whose
spans are saved beside the result).

--smoke runs every workload of BENCHMARK.json at a tiny budget, traced and
untraced, and checks that each metric is emitted with its unit and that the
output checks ran and passed.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "perfbench"
# The simulator sources the binary is built from.
REQUIRED = ["src/core/trainer.hh", "bench/harness.cc", "data/scenarios"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        fail("simulator sources missing: " + ", ".join(missing))
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's scratch files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the sources the binary is built from (works without git)."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "bench", "perfbench")
                   for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or None


def stamp(build_line, args):
    """Host and build identity; compare.py refuses to compare across them."""
    fields = dict(re.findall(r"(\w+)=(\S+)", build_line))
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": fields.get("compiler", "unknown").replace("_", " "),
        "build_type": fields.get("build_type", "unknown"),
        "sanitizer": fields.get("sanitizer", "unknown"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_binary(workload, seed, seconds, trace, smoke=False, spans=None):
    """Runs the binary; returns (stdout lines, parsed result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result line")
    return lines[:-1], result


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke():
    spec = benchmark_spec()
    problems = []
    for w in spec["workloads"]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = run_binary(w["name"], 1, 1, trace, smoke=True)
            tag = f"{w['name']} trace={trace}"
            checks = re.search(r"checks=(\d+)", "\n".join(lines))
            if not checks or int(checks.group(1)) == 0:
                problems.append(f"{tag}: no output checks ran")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{tag}: outputs did not check out: {result}")
            if not result.get("attempted", 0) >= 1:
                problems.append(f"{tag}: nothing attempted")
            got = result.get("metrics", {})
            for m in wanted:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append(f"{tag}: {m['name']} missing")
                elif entry.get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {entry.get('unit')}"
                                    f" != {m['unit']}")
                elif not math.isfinite(entry.get("value", float("nan"))):
                    problems.append(f"{tag}: {m['name']} is not a number")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
            print(f"smoke {tag}: {len(got)} metrics, "
                  f"{checks.group(1) if checks else 0} checks")
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    if args.smoke:
        return smoke()
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seed < 1:
        fail("--seed must be >= 1")

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    base = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = base.with_name(base.name + "-spans.json") if args.trace else None
    lines, result = run_binary(args.workload, args.seed, args.seconds,
                               args.trace, spans=spans)
    build_line = next((l for l in lines if l.startswith("build:")), "")
    record = {"stamp": stamp(build_line, args), "result": result}
    base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for line in lines:
        print(line)
    print("stamp: " + json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
