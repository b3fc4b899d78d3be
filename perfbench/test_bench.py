#!/usr/bin/env python3
"""The benchmark's own test: a short mode of every workload.

    python3 perfbench/test_bench.py

Run from the repository root. For each workload in BENCHMARK.json it
runs run.py --short with --trace 0 and --trace 1 and checks that:
  * the run exits 0 and reports correct, with no failed repetition;
  * every metric BENCHMARK.json names prints, with its unit, and no other;
  * the fingerprint is pinned and matched (hicc_perfbench checks every
    repetition, span-traced ones included, against the pin);
  * the traced and untraced runs report the same fingerprint, and
    host_telemetry's equals host_incast's (probe tracing changes only
    the event count, which the fingerprint leaves out).
Exits non-zero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--short"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    fingerprints = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            context, result = run(name, trace)
            tag = f"{name} trace={trace}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: correct, {result['attempted']} attempted, none failed")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in expected[trace]}
            check(set(metrics) == set(want), f"{tag}: every named metric prints, no other")
            check(all(metrics[n]["unit"] == u for n, u in want.items()),
                  f"{tag}: every metric carries its unit")
            check(context["pinned"], f"{tag}: fingerprint {context['fingerprint']} pinned and matched")
            fingerprints[(name, trace)] = context["fingerprint"]
        check(fingerprints[(name, 0)] == fingerprints[(name, 1)],
              f"{name}: traced fingerprint equals untraced")
    check(fingerprints[("host_telemetry", 0)] == fingerprints[("host_incast", 0)],
          "host_telemetry fingerprint equals host_incast")
    print("all checks passed")


if __name__ == "__main__":
    main()
