#!/usr/bin/env python3
"""Builds graphguard_bench from this checkout and runs one workload.

    python3 ggbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                           [--save <file.jsonl>]

Run from anywhere inside a checkout. The repository's top-level CMake
project is configured into .bench_build/ with ggbench/graphguard_bench.cmake
added to it, and the graphguard_bench target is built there on first use;
later runs only re-check the build. The workload runs in a scratch
directory under .bench_build/, which is removed afterwards.

The driver's own lines (`metric <name>=<value> <unit>`, `result: ...`) are
echoed; the last line of stdout is one JSON object:

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0, and
every per_layer metric with --trace 1 (0 for a layer the workload does not
exercise). --save appends one JSON line to a file, the format compare.py
reads: the workload, seed and trace flag, every metric the driver printed,
and the driver's BenchReporter report under "report".
"""
import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

RUN_DEADLINE_S = 175  # a run must end within 180 s ...
BUILD_DEADLINE_S = 890  # ... or 900 s when it builds first
BUILD_DIR = ".bench_build"

METRIC = re.compile(r"^metric (\S+)=(\S+) (\S+)$")
RESULT = re.compile(r"^result: (correct|INCORRECT) attempted=(\d+) failed=(\d+)$")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(command, timeout, **kwargs):
    """subprocess.run in its own process group, all of which is killed
    and reaped on timeout (the compiler jobs of a build included)."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return proc.returncode, out


def build(root, build_dir, started):
    """Configures (once) and builds the driver; returns its path and
    whether anything was compiled."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        hook = os.path.join(root, "ggbench", "graphguard_bench.cmake")
        configure = ["cmake", "-S", root, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_PROJECT_INCLUDE={hook}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "graphguard_bench",
                  "-j", jobs])
    binary = os.path.join(build_dir, "graphguard_bench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    with open(log_path, "a") as log:
        for step in steps:
            remaining = BUILD_DEADLINE_S - 60 - (time.monotonic() - started)
            try:
                code, _ = run_group(step, remaining, stdout=log,
                                    stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if code != 0:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}")
    return binary, before != os.path.getmtime(binary)


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--save", help="append the run's JSON record here")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        fail(f"no top-level CMakeLists.txt under {root}; run from a full checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; one of {', '.join(workloads)}")

    build_dir = os.path.join(root, BUILD_DIR)
    # Compilers and the driver put their temporary files here, not in /tmp.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary, built = build(root, build_dir, started)

    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    report_path = os.path.join(workdir, "report.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--json", report_path]
    deadline = BUILD_DEADLINE_S if built else RUN_DEADLINE_S
    try:
        returncode, out = run_group(
            command, min(RUN_DEADLINE_S - 5, deadline - (time.monotonic() - started)),
            cwd=workdir, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out)
        with open(report_path) as f:
            report = json.load(f)
    except subprocess.TimeoutExpired:
        fail("graphguard_bench timed out")
    except (OSError, ValueError) as error:
        fail(f"graphguard_bench wrote no report ({error})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    printed = {}
    result = None
    for line in out.splitlines():
        if match := METRIC.match(line):
            printed[match[1]] = {"value": float(match[2]), "unit": match[3]}
        elif match := RESULT.match(line):
            result = match
    if result is None:
        fail(f"graphguard_bench printed no result line (exit code {returncode})")

    wanted = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    metrics = {}
    for metric in wanted:
        measured = printed.get(metric["name"])
        if measured is None and args.trace == "0":
            fail(f"graphguard_bench did not report {metric['name']}")
        if measured is not None and measured["unit"] != metric["unit"]:
            fail(f"{metric['name']} is in {measured['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {
            "value": measured["value"] if measured else 0.0,
            "unit": metric["unit"]}
    correct = result[1] == "correct" and returncode == 0
    if args.save:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace == "1", "correct": correct,
                  "metrics": printed, "report": report}
        with open(args.save, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": int(result[2]),
                      "failed": int(result[3]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
