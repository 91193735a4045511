#!/usr/bin/env python3
"""The pob benchmark: builds `pobbench` from this source tree and runs one
workload, or the self-test.

    python3 perfbench/run.py --workload swarm-random --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of the source tree. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and reports and spans to .bench_out. The workloads,
their parameters and the metric map are recorded in perfbench/record.json;
the metric names and bounds are in BENCHMARK.json.

With --trace 0 the last line of standard output is one JSON object holding
every end-to-end metric; with --trace 1 it holds every per-layer metric.
Every run checks its results (closed forms, invariants, repeat digests) and
counts failed checks against attempted ones.
"""

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("swarm-random", "barter-det", "stream-vod", "core-certify")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def default_jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def build(jobs):
    """Configures (once) and builds pobbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("pob sources not found: src/CMakeLists.txt is missing")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "pobbench", "-j", str(jobs)])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "pobbench")


@functools.lru_cache(maxsize=None)
def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "none"


@functools.lru_cache(maxsize=None)
def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
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


def run_binary(binary, workload, seed, seconds, trace, jobs, extra=()):
    """Runs one workload; returns (stdout lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--jobs", str(jobs),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--git-sha", git_sha(), "--source-digest", source_digest(), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        raise BenchError(f"pobbench exited with {done.returncode} on {workload}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise BenchError(f"malformed result line: {lines[-1]}")
    return lines, result


def digest_of(lines):
    for line in lines:
        if line.startswith("# digest "):
            return line.split()[2]
    raise BenchError("no digest line in pobbench output")


def self_test(jobs):
    """Toy-size runs of every workload through the same code path."""
    binary = build(jobs)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "record.json")) as f:
        record = json.load(f)
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    declared = {w["name"] for w in bench["workloads"]}
    expect(declared == set(WORKLOADS), "BENCHMARK.json names the four workloads")
    expect(set(record["workloads"]) == declared, "record.json describes every workload")
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    for name in (m["name"] for m in bench["per_layer"]):
        entry = record["per_layer"].get(name)
        expect(entry is not None and entry["moves"] in e2e_names
               and set(entry["workloads"]) <= declared,
               f"record.json maps {name} to an end-to-end metric and workloads")

    for workload in WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            digests = {}
            for j in (1, 4):
                lines, result = run_binary(binary, workload, 1, 0.01, trace, j, ["--toy"])
                digests[j] = digest_of(lines)
                expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                       f"{workload} trace {trace} jobs {j}: every check passes")
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                wanted = {m["name"]: m["unit"] for m in listed}
                expect(printed == wanted,
                       f"{workload} trace {trace} jobs {j}: prints every metric with its unit")
            expect(digests[1] == digests[4],
                   f"{workload} trace {trace}: jobs 1 and jobs 4 digests equal")
        _, result = run_binary(binary, workload, 1, 0.01, 0, jobs, ["--toy", "--corrupt"])
        expect(not result["correct"] and result["failed"] >= 1,
               f"{workload}: a wrong closed form is counted as failed")

    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    jobs = default_jobs()
    try:
        if args.self_test:
            return self_test(jobs)
        if args.workload is None:
            parser.error("--workload is required")
        binary = build(jobs)
        lines, _ = run_binary(binary, args.workload, args.seed, args.seconds, args.trace, jobs)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
