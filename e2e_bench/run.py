#!/usr/bin/env python3
"""End-to-end serving benchmark: builds the engine from source and runs one
workload, or all of them.

    python3 e2e_bench/run.py --workload adhoc_tpch --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --seed 1 --seconds 20      # every workload, both modes

One workload: prints every metric the run measured, then one JSON result
line (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). Without --workload, runs each workload untraced and traced and
prints a summary with the tracing overhead per workload. Exits non-zero on
a failed build, a failed run, or any wrong answer.

The build goes to $CARGO_TARGET_DIR/e2e_bench (default .bench_build/), the
span traces of traced runs to <build dir>/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["adhoc_tpch", "shared_serving", "ingest_serve", "anytime_topk"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2e_bench: build failed: " + " ".join(cmd))
    return os.path.join(out, "e2e_bench")


def run_one(binary, workload, seed, seconds, trace, echo=True):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("e2e_bench: %s timed out" % workload)
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, lines


def run_all(binary, seed, seconds):
    failed = False
    rows = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, result, lines = run_one(binary, w, seed, seconds, trace)
            failed |= code != 0 or result is None or not result.get("correct")
            if trace:
                overhead = [l.split()[2] for l in lines
                            if l.startswith("metric trace.overhead_frac")]
                lateness = [l.split()[2] for l in lines
                            if l.startswith("metric generator_lateness_p99_ms")]
                rows.append((w, overhead[0] if overhead else "-",
                             lateness[0] if lateness else "-"))
    print("\n%-16s %22s %28s" % ("workload", "trace.overhead_frac",
                                 "generator_lateness_p99_ms"))
    for w, o, l in rows:
        print("%-16s %22s %28s" % (w, o, l))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    binary = build()
    if args.workload is None:
        return run_all(binary, args.seed, args.seconds)
    code, result, _ = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if code == 0 and (result is None or not result.get("correct")):
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
