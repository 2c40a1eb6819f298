#!/usr/bin/env python3
"""Builds and runs the P-MoVE benchmark of record.

    python3 perfbench/run.py --workload ingest_wal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the measured libraries from src/) into
.bench_build/perfbench; later runs rebuild incrementally.  Each run prints
every metric with its unit and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  A full record of the run is
appended to .bench_build/results/results.jsonl (see perfbench/compare.py).
The run exits non-zero when an answer was wrong or the build failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170
WORKLOADS = ("ingest_wal", "dashboard_live", "fleet_wire")


def die(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def clean_env():
    """The process environment without PMOVE_* knobs, so tuning variables
    of the shell never change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PMOVE_")}


def src_digest():
    """Digest of the measured sources (the checkout need not be a git
    repository, so this stands in for a commit id)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "tsdb", "db.hpp")):
        die("the P-MoVE sources (src/) are not next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log, env=clean_env()).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)
                die("configure failed; see " + log_path)
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
        if subprocess.run(cmd, stdout=log, stderr=log, env=clean_env()).returncode:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            die("build failed; see " + log_path)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_test():
    """Builds and runs the benchmark's own tests, and checks that the
    binary's metric list matches BENCHMARK.json."""
    build(["pmbench", "pmbench_test"])
    code = subprocess.run([os.path.join(BUILD, "pmbench_test")],
                          env=clean_env()).returncode
    listed = json.loads(subprocess.run(
        [os.path.join(BUILD, "pmbench"), "--list-metrics"],
        capture_output=True, text=True, env=clean_env()).stdout)
    e2e, layer = declared_metrics()
    for key, want in (("end_to_end", e2e), ("per_layer", layer)):
        have = {name: unit for name, unit in listed[key]}
        if have != want:
            print("FAIL: %s metrics differ from BENCHMARK.json: %s" %
                  (key, sorted(set(have.items()) ^ set(want.items()))))
            code = code or 1
    print("metric list matches BENCHMARK.json" if code == 0 else "FAIL")
    return code


def run_workload(args):
    build(["pmbench"])
    os.makedirs(RESULTS, exist_ok=True)
    work = os.path.join(ROOT, ".bench_build", "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "pmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", work,
           "--out-dir", RESULTS, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("the benchmark did not finish within %d s" % RUN_TIMEOUT_S, 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, IndexError):
        sys.stdout.write(proc.stdout)
        die("the benchmark printed no result line (exit %d)" % proc.returncode, 1)
    e2e, layer = declared_metrics()
    want = set(layer if args.trace else e2e)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if names != want:
        die("metrics differ from BENCHMARK.json: %s" % sorted(names ^ want), 1)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.test:
        return run_test()
    if args.workload is None:
        parser.error("--workload is required")
    started = time.monotonic()
    code = run_workload(args)
    print("run.py: %s finished in %.1f s" % (args.workload, time.monotonic() - started),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
