#!/usr/bin/env python3
"""Build and run the kvbench benchmark: one workload, one seed, one result.

    python3 kvbench/run.py --workload kv-write --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the benchmark and the
program under test (the repository's src/ tree) with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
workload in its own process. It forwards the benchmark's output, whose
last line is the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics and writes the run's spans to <build dir>/traces/<workload>.tsv.
The exit code is non-zero when the build fails, a CNVM_* environment
knob is set, or any operation failed or returned a wrong value.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "kvbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the program's and the benchmark's sources, so a run
    outside a git checkout still names the code it measured."""
    h = hashlib.sha256()
    for top in ("src", "kvbench"):
        base = os.path.join(ROOT, top)
        for d, dirs, files in os.walk(base):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("CNVM_"))
    if knobs:
        log("refusing to run with %s set; the benchmark pins every knob"
            % ", ".join(knobs))
        return 2

    out = build_dir()
    if not build(out):
        return 1

    cmd = [os.path.join(out, "kvbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".tsv")]

    print("# meta src_digest=%s" % source_digest(), flush=True)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        return r.returncode

    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
