#!/usr/bin/env python3
"""Gate micro-bench regressions against the committed baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json \
        --benchmark BM_SimulatorScheduleRun [--benchmark BM_FlowChurn ...] \
        [--threshold 0.25]

Both files are google-benchmark JSON records, as bench/micro_bench
writes them with `--benchmark_out=PATH`; the committed baseline is
bench/BENCH_MICRO.json (docs/PERFORMANCE.md, "Micro-benchmarks").

Raw time per iteration is not comparable across machines -- CI runners
and the machine that produced the committed baseline differ in clock
speed, turbo behavior, and co-tenancy. Every micro_bench run therefore
includes BM_ReferenceSpin, a pure-ALU spin that measures the machine,
not the code. This script compares *normalized* cost,

    rel = real_time(target) / real_time(BM_ReferenceSpin)

with each real_time converted to ns by its row's time_unit, and fails
when a current row's `rel` exceeds the baseline's by more than
`--threshold` (default 25%).

A row's allocs_per_op is gated too whenever the baseline row carries
one (the row runs an AllocTally): the zero-allocation steady state is a
correctness property (see tests/sim_test.cpp SteadyStateIsAllocationFree),
so any drift above the baseline + 0.01 fails regardless of speed.

Exit codes: 0 pass, 1 perf/alloc regression, 2 malformed record or a
missing or unusable row (an environment/tooling problem, not a
regression -- CI can distinguish "the code got slower" from "the
record is unreadable").
"""

import argparse
import json
import sys

REFERENCE = "BM_ReferenceSpin"
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
EXIT_REGRESSION = 1
EXIT_BAD_RECORD = 2


def bad_record(path, why):
    print(f"{path}: {why}\n"
          f"  This is a record problem, not a perf regression. Regenerate with\n"
          f"    ./build/bench/micro_bench --benchmark_out={path}",
          file=sys.stderr)
    sys.exit(EXIT_BAD_RECORD)


def load(path):
    """Returns the iteration rows of one google-benchmark record by name."""
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        bad_record(path, f"not readable JSON ({e})")
    if not isinstance(record, dict) or not isinstance(record.get("benchmarks"), list):
        bad_record(path, "not a google-benchmark record (no 'benchmarks' list)")
    return {row["name"]: row for row in record["benchmarks"]
            if isinstance(row, dict) and "name" in row
            and row.get("run_type", "iteration") == "iteration"
            and not row.get("error_occurred", False)}


def ns_per_op(rows, name, path):
    if name not in rows:
        bad_record(path, f"benchmark {name!r} missing (have: {sorted(rows)})")
    row = rows[name]
    unit = row.get("time_unit", "ns")
    if unit not in NS_PER_UNIT:
        bad_record(path, f"{name} has unknown time_unit {unit!r}")
    t = row.get("real_time")
    if not isinstance(t, (int, float)) or t <= 0:
        bad_record(path, f"{name} has no positive real_time")
    return t * NS_PER_UNIT[unit]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--benchmark", action="append", required=True,
                    help="row to gate; repeat for several rows")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional regression in normalized time")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    base_ref = ns_per_op(base, REFERENCE, args.baseline)
    cur_ref = ns_per_op(cur, REFERENCE, args.current)
    # Every gated row must be readable on both sides before any verdict.
    times = {name: (ns_per_op(base, name, args.baseline),
                    ns_per_op(cur, name, args.current))
             for name in args.benchmark}
    for name in args.benchmark:
        if "allocs_per_op" in base[name] and "allocs_per_op" not in cur[name]:
            bad_record(args.current, f"{name} has no allocs_per_op but the "
                                     f"baseline row gates one")

    failed = False
    for name in args.benchmark:
        base_ns, cur_ns = times[name]
        base_rel = base_ns / base_ref
        cur_rel = cur_ns / cur_ref
        ratio = cur_rel / base_rel
        print(f"{name}:")
        print(f"  baseline: {base_ns:12.2f} ns/op "
              f"(ref {base_ref:.2f} ns -> rel {base_rel:.4f})")
        print(f"  current:  {cur_ns:12.2f} ns/op "
              f"(ref {cur_ref:.2f} ns -> rel {cur_rel:.4f})")
        print(f"  normalized ratio: {ratio:.3f} "
              f"(fail above {1 + args.threshold:.3f})")
        if ratio > 1 + args.threshold:
            print(f"FAIL: {name} regressed "
                  f"{(ratio - 1) * 100:.1f}% (normalized) vs baseline")
            failed = True

        if "allocs_per_op" not in base[name]:
            print("  allocs_per_op: not measured")
            continue
        base_allocs = base[name]["allocs_per_op"]
        cur_allocs = cur[name]["allocs_per_op"]
        print(f"  allocs_per_op: baseline {base_allocs:.4f}, current {cur_allocs:.4f}")
        if cur_allocs > base_allocs + 0.01:
            print(f"FAIL: {name} allocates on the hot path "
                  f"({cur_allocs:.4f}/op vs baseline {base_allocs:.4f}/op)")
            failed = True

    if failed:
        sys.exit(EXIT_REGRESSION)
    print("OK")


if __name__ == "__main__":
    main()
