#!/usr/bin/env python3
"""End-to-end benchmark of flowmotif.

Usage (from the repository root):

    python3 flowbench/run.py --workload analytic|study|live|all --seed N \
        --seconds S --trace 0|1 [--scale X] [--plant-wrong]

Builds the library and the benchmark harness from source (optimized, into
$CARGO_TARGET_DIR or .bench_build/), generates the workload's input
files from the seed in a separate process, runs the workload, checks its
outputs and prints a report. The last stdout line is the JSON result:
with --trace 0 it carries the end-to-end metrics named in BENCHMARK.json,
with --trace 1 the per-layer metrics of a traced run (which also writes
a Chrome trace-event file under the build directory). `--workload all`
runs the three workloads one after another, each in its own process.
METRICS.md describes the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The seed reserved for confirming claims made while tuning on others.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"flowbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build_harness(out):
    """Configures and builds the harness; returns its path."""
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "flowbench_harness"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step), 1)
    return os.path.join(cmake_dir, "flowbench_harness")


def run_harness(args, timeout):
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}: {' '.join(args)}", 1)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing", 1)
    return lines[:-1], json.loads(lines[-1])


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def run_all(workloads, args):
    """Runs every workload, each in its own process, with the same flags.
    The last line maps each workload to its JSON result."""
    flags = ["--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace), "--scale", repr(args.scale)]
    if args.plant_wrong:
        flags.append("--plant-wrong")
    results = {}
    for workload in workloads:
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, *flags],
                              stdout=subprocess.PIPE, text=True,
                              timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(f"workload {workload} exited with {done.returncode}", 1)
        print(f"== workload {workload}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier (the self-test shrinks it)")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt one result; the run must report it")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"flowmotif sources not found under {ROOT}/src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    spec = load_json(spec_path)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        run_all(workloads, args)
        return
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (expected all or one of {workloads})")
    if args.seconds <= 0 or args.scale <= 0 or args.seed < 0:
        fail("--seconds and --scale must be positive, --seed non-negative")
    layers = load_json(os.path.join(HERE, "layers.json"))

    out = build_dir()
    harness = build_harness(out)
    inputs = os.path.join(out, "inputs", args.workload)
    os.makedirs(inputs, exist_ok=True)
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", repr(args.scale)]
    _, generated = run_harness([harness, "gen", *common, "--out", inputs],
                              RUN_TIMEOUT_S)
    trace_path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
    command = [harness, "run", *common, "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--inputs", inputs]
    if args.trace:
        command += ["--trace-out", trace_path]
    if args.plant_wrong:
        command.append("--plant-wrong")
    before = cpu_ticks()
    report, result = run_harness(command, RUN_TIMEOUT_S)
    after = cpu_ticks()
    # Share of CPU time the hypervisor took from this machine during the
    # run: a noisy-neighbour signal to read the timings against.
    steal = None
    if before and after and after[1] > before[1]:
        steal = round((after[0] - before[0]) / (after[1] - before[1]), 4)

    notes = result.get("notes", {})
    valid = notes.get("optimized") == "true"
    context = {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": notes.get("build_type"),
        "compiler": notes.get("compiler"),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "cpu_steal_frac": steal,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs": generated,
        "schedule_digest": notes.get("schedule_digest"),
        "valid": valid,
    }
    for line in report:
        print(line)
    print("context " + json.dumps(context, sort_keys=True))
    if not valid:
        print("context: INVALID run: the harness was not built with "
              "optimization; its timings must not be used")
    if args.trace:
        print(f"trace file: {os.path.relpath(trace_path, ROOT)}")

    measured = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            got = measured[name]
        elif args.trace and args.workload not in layers[name]["measured_on"]:
            # This workload bypasses the layer: it did no such work.
            got = {"value": 0.0, "unit": unit}
        else:
            fail(f"the harness did not report {name}", 3)
        if got["unit"] != unit or got["value"] is None:
            fail(f"bad value for {name}: {got}", 3)
        metrics[name] = {"value": got["value"], "unit": unit}
    print(json.dumps({
        "correct": bool(result["correct"]) and valid,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    start = time.monotonic()
    try:
        main()
    except subprocess.TimeoutExpired as e:
        fail(f"timed out after {time.monotonic() - start:.0f} s: {e.cmd[0]}", 1)
