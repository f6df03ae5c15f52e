#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ladder|ladder-t4|service \
        --seed N --seconds S --trace 0|1 [--data-seed N]

Run from the repository root. The engine is compiled from ./src into
./.bench_build/perfbench (Release). The full record of a run -- metrics,
seeds, host and build, per-query detail, the layer interaction table -- is
written to ./.bench_build/perfbench/results/; traced runs also write their
spans there. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
when the build fails or any answer differs from its reference.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
RUN_DEADLINE_S = 175
# Compiler and benchmark temporaries stay inside the build directory.
CHILD_ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine source at ./src; run from the repository root")
    os.makedirs(CHILD_ENV["TMPDIR"], exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=CHILD_ENV) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """SHA-256 over the engine and benchmark sources, so two records can be
    matched to the code that produced them without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def read_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ladder", "ladder-t4", "service"])
    parser.add_argument("--seed", type=int, required=True,
                        help="job-mix seed: request order and service deck")
    parser.add_argument("--data-seed", type=int, default=42,
                        help="TPC-H data seed (default: the generator's)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    start = time.monotonic()
    binary = build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = "%s-data%d-mix%d-trace%d" % (args.workload, args.data_seed,
                                        args.seed, args.trace)
    command = [binary, "--workload", args.workload,
               "--data-seed", str(args.data_seed), "--mix-seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    spans_path = os.path.join(RESULTS_DIR, stem + "-spans.json")
    if args.trace:
        command += ["--trace-out", spans_path]
    budget = max(30.0, RUN_DEADLINE_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=budget, env=CHILD_ENV)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %.0f s" % budget)
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    host = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "note": "shared host: other tenants' load is not controlled, so "
                "compare medians of repeated runs, not single runs",
    }
    host.update(record.get("build", {}))
    for key in ("nproc", "compiler", "build_type", "git_sha", "note"):
        print("host.%-29s %s" % (key, host[key]))
    print("seeds: data %d, mix %d" % (args.data_seed, args.seed))

    benchmark = read_json(os.path.join(ROOT, "BENCHMARK.json")) or {}
    why = {w["name"]: w["why"] for w in benchmark.get("workloads", [])}
    full = dict(record)
    full.update({
        "workload": args.workload,
        "why": why.get(args.workload, ""),
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "interactions": read_json(os.path.join(BENCH_DIR,
                                               "interactions.json")),
    })
    if args.trace:
        full["spans_file"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)

    result = {k: record[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
