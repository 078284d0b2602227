#!/usr/bin/env python3
"""Self-tests of the flowbench benchmark.

Usage (from the repository root):  python3 flowbench/selftest.py

1. A tiny-scale smoke run of every workload, untraced and traced: every
   metric BENCHMARK.json names is printed in the report with its unit and
   appears in the JSON result line, and the run reports correct outputs.
2. A planted wrong answer (--plant-wrong) in every workload: the checker
   must catch it, so the result reports correct=false and failed > 0.
3. BENCHMARK.json and layers.json agree: every per-layer metric has a
   layer entry with the same unit, and the live workload's line records
   the harness's offered rates and latency limit.
4. `--workload all` runs every workload and reports each one.

Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "0.05", "--seconds", "1.5", "--seed", "3"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--trace", str(trace), *TINY, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def expect(ok, message):
    if not ok:
        sys.exit("FAIL: " + message)
    print("ok   " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)

    for m in spec["per_layer"]:
        entry = layers.get(m["name"])
        expect(entry is not None and entry["unit"] == m["unit"],
               f"layers.json describes {m['name']} ({m['unit']})")
    expect(set(layers) == {m["name"] for m in spec["per_layer"]},
           "layers.json names exactly the per-layer metrics")
    with open(os.path.join(HERE, "harness", "live.cc")) as f:
        live_src = f.read()
    live_why = next(w["why"] for w in spec["workloads"] if w["name"] == "live")
    for constant, text in (("kQueriesPerSecond", "{} queries/s"),
                           ("kEdgesPerSecond", "{} edges/s"),
                           ("kLatencyLimitMs", "limit {} ms")):
        value = re.search(rf"{constant} = ([0-9.]+);", live_src).group(1)
        value = value[:-2] if value.endswith(".0") else value
        expect(text.format(value) in live_why,
               f"BENCHMARK.json's live line records {constant} = {value}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(workload, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: correct, nothing failed")
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            for m in spec[group]:
                name, unit = m["name"], m["unit"]
                measured = trace == 0 or workload in layers[name]["measured_on"]
                if measured:
                    expect(printed.get(name) == unit,
                           f"{workload} trace={trace}: report prints {name} in {unit}")
                got = result["metrics"].get(name)
                expect(got is not None and got["unit"] == unit,
                       f"{workload} trace={trace}: result carries {name} in {unit}")
            expect(set(result["metrics"]) == {m["name"] for m in spec[group]},
                   f"{workload} trace={trace}: result carries exactly the {group} metrics")
        _, planted = run(workload, 0, ["--plant-wrong"])
        expect(not planted["correct"] and planted["failed"] > 0,
               f"{workload}: planted wrong answer caught "
               f"({planted['failed']} of {planted['attempted']} failed)")
    _, combined = run("all", 0)
    expect(combined["correct"] and
           set(combined["workloads"]) == {w["name"] for w in spec["workloads"]},
           "--workload all runs every workload and reports them correct")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
