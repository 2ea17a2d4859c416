#!/usr/bin/env python3
"""Repository benchmark entry point: build teal_perfbench, run one workload.

    python3 perfbench/run.py --workload <asn-solve|b4-open|swan-train> \
        --seed <n> --seconds <s> --trace <0|1> [--rate <rps>] [--limit-ms <ms>]

Run from the root of a source tree. The benchmark package (perfbench/
CMakeLists.txt) is configured and built under .bench_build/perfbench in
Release mode; only the library and the benchmark binary are compiled.
The binary's standard output is passed through: a provenance header, the
human-readable figures, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. A build failure, a failed output
check or a malformed result exits non-zero without printing a result.
BENCHMARK.json fixes the b4-open offered rate and latency limit on the
command line; they are never calibrated per run.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "teal_perfbench")
WORKLOADS = ("asn-solve", "b4-open", "swan-train")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "teal_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the program sources and build file (path + bytes)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rate", type=float, default=0.0)
    ap.add_argument("--limit-ms", type=float, default=0.0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no program sources beside the benchmark in {ROOT}", 2)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate", str(args.rate), "--limit-ms", str(args.limit_ms),
           "--git-sha", git_sha(),
           "--src-digest", source_digest()]
    for k in sorted(os.environ):
        if k.startswith("TEAL_"):
            print(f"#   env              {k}={os.environ[k]}")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{") else lines) + "\n")
        fail(f"workload {args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not a JSON result")
    if (set(result) != {"correct", "attempted", "failed", "metrics"}
            or result["correct"] is not True or result["attempted"] < 1):
        fail("malformed or incorrect result line")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
