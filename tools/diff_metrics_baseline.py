#!/usr/bin/env python3
"""Diff a CLADO_METRICS dump against a checked-in counter baseline.

Usage:
    diff_metrics_baseline.py [--report] <baseline.json> <actual_metrics.json>

The baseline holds only counters that are deterministic for a pinned
configuration (fixed model list, fixed sensitivity set, fixed iteration
count) — measurement counts, solver node/oracle totals — never timings.
Every counter named in the baseline must be present in the actual dump
with exactly the baseline value; counters the baseline does not name are
ignored (timing spans, pool stats, and cache-dependent counters vary
freely). A drift therefore means the *work done* by the bench changed —
an algorithmic regression or an unintended behavior change — which is
exactly what a perf-baseline gate should catch ahead of timing noise.

Baselines may additionally carry a "gauges_min" section: each named gauge
must be PRESENT in the actual dump with a value >= the baseline floor.
Unlike counters these are ratio metrics (e.g. the SIMD-over-scalar GEMM
speedup pinned by bench_gemm_kernels), which are noisy upward but
host-stable downward — a value under the floor means the vector kernels
regressed toward scalar throughput.

A "gauges_max" section is the mirror image: each named gauge must be
present with a value <= the baseline ceiling. Its canonical user is the
serving plan's steady-state allocation counter (ceiling 0) — any value
above it means a fused inference batch touched the heap.

Exit status: 0 on match, 1 on any drift, floor/ceiling violation, or
missing key.

--report prints the delta instead of gating on it: one Markdown table row
per baselined counter and gauge bound (baseline / actual / actual minus
baseline) and exit status 0 whatever the values. Use it to see how far a
change moved the work counters, and to write up a baseline refresh.
"""

import json
import sys


def gauge_value(entry):
    # Gauges dump as {"last": x, "max": y}; compare the final value.
    return entry["last"] if isinstance(entry, dict) else entry


def fmt(value, sign=""):
    if isinstance(value, int):
        return f"{value:{sign},}"
    return f"{value:{sign},.6g}"


def report(baseline_path, expected, floors, ceilings, got, got_gauges) -> int:
    rows = [(name, want, got.get(name)) for name, want in sorted(expected.items())]
    for label, bounds in (("floor", floors), ("ceiling", ceilings)):
        for name, bound in sorted(bounds.items()):
            have = gauge_value(got_gauges[name]) if name in got_gauges else None
            rows.append((f"{name} ({label})", bound, have))
    print(f"| metric | baseline ({baseline_path}) | actual | delta |")
    print("|---|---:|---:|---:|")
    for name, want, have in rows:
        if have is None:
            print(f"| {name} | {fmt(want)} | missing | |")
        else:
            print(f"| {name} | {fmt(want)} | {fmt(have)} | {fmt(have - want, '+')} |")
    return 0


def main() -> int:
    args = sys.argv[1:]
    report_mode = "--report" in args
    if report_mode:
        args.remove("--report")
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    baseline_path, actual_path = args

    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(actual_path, encoding="utf-8") as f:
        actual = json.load(f)

    expected = baseline.get("counters", {})
    floors = baseline.get("gauges_min", {})
    ceilings = baseline.get("gauges_max", {})
    if not expected and not floors and not ceilings:
        sys.stderr.write(
            f"{baseline_path}: no counters, gauges_min, or gauges_max in baseline\n"
        )
        return 2
    got = actual.get("counters", {})
    got_gauges = actual.get("gauges", {})
    if report_mode:
        return report(baseline_path, expected, floors, ceilings, got, got_gauges)

    drifts = []
    for name, want in sorted(expected.items()):
        if name not in got:
            drifts.append(f"  {name}: missing from {actual_path} (expected {want})")
        elif got[name] != want:
            drifts.append(f"  {name}: {got[name]} != baseline {want}")
    for name, floor in sorted(floors.items()):
        if name not in got_gauges:
            drifts.append(f"  {name}: gauge missing from {actual_path} (floor {floor})")
            continue
        value = gauge_value(got_gauges[name])
        if value < floor:
            drifts.append(f"  {name}: {value} below baseline floor {floor}")
    for name, ceiling in sorted(ceilings.items()):
        if name not in got_gauges:
            drifts.append(f"  {name}: gauge missing from {actual_path} (ceiling {ceiling})")
            continue
        value = gauge_value(got_gauges[name])
        if value > ceiling:
            drifts.append(f"  {name}: {value} above baseline ceiling {ceiling}")

    if drifts:
        print(f"metric baseline drift vs {baseline_path}:")
        print("\n".join(drifts))
        print(
            "\nIf the change in work is intentional, refresh the baseline:\n"
            f"  python3 tools/diff_metrics_baseline.py --update would not be safe;\n"
            f"  regenerate by rerunning the bench with CLADO_METRICS and copying the\n"
            f"  counters listed in {baseline_path} from the new dump."
        )
        return 1

    parts = [f"{len(expected)} counters"]
    if floors:
        parts.append(f"{len(floors)} gauge floors")
    if ceilings:
        parts.append(f"{len(ceilings)} gauge ceilings")
    print(f"{' and '.join(parts)} match {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
