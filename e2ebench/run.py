#!/usr/bin/env python3
"""End-to-end barrier benchmark: build, run one workload, report.

Run from the root of an optibar checkout:

    python3 e2ebench/run.py --workload churn --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --test          # the benchmark's own tests
    python3 e2ebench/run.py --all --seed 1  # every workload, one after another

The program is built from the checkout's sources into .bench_build/
(first run only; later runs rebuild incrementally). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1. The traced run also
writes every span to .bench_build/traces/<workload>.csv; each run's
full result, with sample counts and the build fingerprint, goes to
.bench_build/results/.

Exit status: 0 when every correctness check passed; 1 when one failed
(its name is printed); 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        die("cannot read %s: %s" % (path, error))


def build(root, bench_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(root, "src", "core", "tuner.hpp")):
        die("optibar sources not found under %s/src; run from the root "
            "of a full checkout" % root)
    build_dir = os.path.join(root, BUILD_DIR)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(max(1, len(os.sched_getaffinity(0))))])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            die("build step %s failed: %s" % (" ".join(step), error))
        if done.returncode != 0:
            die("build step failed: " + " ".join(step))
    return build_dir


def fingerprint(root, bench_dir):
    """git sha when the checkout is a repository, plus a digest of the
    sources the benchmark builds, so results are compared like with like
    even where no git metadata exists."""
    sha = "none"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            sha = "none"
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), bench_dir):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return ["git_sha=" + sha, "source_sha256=" + digest.hexdigest()[:16]]


def run_workload(args, root, bench_dir, build_dir, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (BENCHMARK.json names %s)"
            % (args.workload, ", ".join(names)))
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report_path = os.path.join(build_dir, "results", tag + ".json")
    command = [os.path.join(build_dir, "optibar_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--report", report_path]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, "traces", args.workload + ".csv")]
    for line in fingerprint(root, bench_dir):
        command += ["--fingerprint", line]
    if os.path.exists(report_path):
        os.remove(report_path)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(done.stdout)
    if done.returncode not in (0, 1) or not os.path.exists(report_path):
        die("optibar_e2e failed with exit status %d" % done.returncode)
    with open(report_path) as f:
        report = json.load(f)

    measured = report["metrics"]
    attempted, failed = report["attempted"], report["failed"]
    if attempted < 1:
        die("no operation was attempted")
    measured["failed_op_ratio"] = {"value": failed / attempted,
                                   "unit": "ratio"}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                die("%s measured in %s, BENCHMARK.json says %s"
                    % (name, measured[name]["unit"], unit))
            value = measured[name]["value"]
        elif args.trace:
            value = 0.0  # this layer is not on the workload's path
        else:
            die("workload %s did not measure %s" % (args.workload, name))
        metrics[name] = {"value": value, "unit": unit}
    print("failed_op_ratio %.6g (%d of %d ops)"
          % (failed / attempted, failed, attempted))
    for line in report["failed_checks"]:
        print("FAILED CHECK " + line)
    print(json.dumps({"correct": report["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if report["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--all", action="store_true",
                        help="run every workload of BENCHMARK.json")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    spec = load_spec(root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        die("--seconds must be positive")
    build_dir = build(root, bench_dir)

    if args.test:
        done = subprocess.run([os.path.join(build_dir, "optibar_e2e_tests")],
                              timeout=RUN_TIMEOUT_S)
        return done.returncode
    if args.all:
        status = 0
        for workload in spec["workloads"]:
            args.workload = workload["name"]
            status = max(status, run_workload(args, root, bench_dir,
                                              build_dir, spec))
        return status
    if not args.workload:
        die("--workload is required (or --all / --test)")
    return run_workload(args, root, bench_dir, build_dir, spec)


if __name__ == "__main__":
    sys.exit(main())
