#!/usr/bin/env python3
"""Smoke test of the DF3 benchmark at a tiny horizon.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json once untraced and once traced
with `--smoke` (a three-hour horizon), and checks that each run passes its
own correctness checks and prints exactly the metrics BENCHMARK.json names
for that mode, with the units it names. Exits non-zero on any mismatch.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    named = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed ({result['failed']} of {result['attempted']})")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            for name in sorted(set(printed) - set(named[trace])):
                problems.append(f"{where}: prints {name}, which BENCHMARK.json does not name")
            for name in sorted(set(named[trace]) - set(printed)):
                problems.append(f"{where}: BENCHMARK.json names {name}, which is not printed")
            for name in sorted(set(printed) & set(named[trace])):
                if printed[name] != named[trace][name]:
                    problems.append(f"{where}: {name} printed in {printed[name]}, named in {named[trace][name]}")
    for p in problems:
        print(p)
    print("smoke test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
