#!/usr/bin/env python3
"""Repo benchmark entry point: build, prepare, run one workload, validate.

One measured run (what the benchmark contract calls):

    python3 perfbench/run.py --workload resnet_a --seed 1 --seconds 30 --trace 0

builds the perfbench driver from ../src into .bench_build/ (incremental),
runs the untimed prepare step (zoo training/caching and each model's saved
G-hat, in an artifacts directory named by a hash of the sources, so a
source change never reuses files the previous code made), then runs the
workload with CLADO_NUM_THREADS=1.
The driver's report goes to stdout; its last line is one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
checked here against BENCHMARK.json before anything is printed.

Steadiness self-check:

    python3 perfbench/run.py --selfcheck [--sets 2] [--runs 10] [--traced 2]
                             [--seconds 30] [--workload NAME ...]

runs every (or each named) workload in --sets independent sets of --runs
untraced runs (set k uses seeds 100k+1..100k+runs), then --traced traced
runs, and prints for each end-to-end metric and set the median, quartiles
and quartile spread against the metric's bound, then how far each later
set's median lies from the first set's, plus the exactness checks
(quality and count metrics identical across every run). A spread or a
median difference above its bound is reported UNSTEADY, and then the
exit code is 1.
"""

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
# Relative to ROOT (the working directory of every child): keeps the UDS
# path short enough for sun_path.
BUILD_DIR = Path(".bench_build")
CMAKE_DIR = BUILD_DIR / "cmake"
ARTIFACTS_ROOT = BUILD_DIR / "artifacts"
# Everything the driver binary is built from: cached weights and G-hats
# are only reused by the code that made them.
SOURCE_DIRS = ("src", "perfbench")
SOURCE_SUFFIXES = (".h", ".cpp", ".txt", ".cmake")
BINARY = CMAKE_DIR / "perfbench"
RUN_TIMEOUT_S = 170
EXACT_METRICS = ("ptq_top1", "served_top1")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_key():
    """Hash of every build input under SOURCE_DIRS (path and bytes)."""
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in SOURCE_SUFFIXES:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


@functools.cache
def artifacts():
    return ARTIFACTS_ROOT / source_key()


def child_env():
    """Environment for driver processes: no inherited CLADO_* setting except
    CLADO_KERNEL, a deliberate kernel choice the host fingerprint records."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CLADO_") or k == "CLADO_KERNEL"}
    env["CLADO_ARTIFACTS_DIR"] = str(artifacts())
    return env


def run_quiet(cmd, env=None):
    """Runs a build or prepare step with its output on stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited with {proc.returncode}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("clado sources (src/) not found next to perfbench/")
    if not (ROOT / CMAKE_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(CMAKE_DIR), "--target", "perfbench",
               "-j", str(os.cpu_count() or 1)])


def prepare():
    """Untimed; training may use every core, so CLADO_NUM_THREADS stays unset."""
    run_quiet([str(BINARY), "prepare", "--artifacts", str(artifacts())], env=child_env())


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def run_workload(spec, workload, seed, seconds, trace):
    """Runs the driver once; returns (stdout lines, parsed last line)."""
    env = child_env()
    env["CLADO_NUM_THREADS"] = "1"
    cmd = [str(BINARY), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--artifacts", str(artifacts()), "--git-rev", git_rev()]
    if trace:
        trace_file = str(BUILD_DIR / f"trace-{workload}.json")
        env["CLADO_TRACE"] = trace_file
        cmd += ["--trace-file", trace_file]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"driver exited with {proc.returncode}")
    result = json.loads(lines[-1])
    validate(spec, result, trace)
    return lines, result


def validate(spec, result, trace):
    """The result line must carry exactly the metrics BENCHMARK.json declares."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, units "
            f"{[(n, got[n], want[n]) for n in want if n in got and got[n] != want[n]]}")
    if result["attempted"] < 1:
        raise RuntimeError("nothing attempted")


def verdict(size, bound):
    if size <= bound / 3:
        return "steady"
    return "within bound, above a third of it" if size <= bound else "UNSTEADY"


def selfcheck(spec, args):
    counts = sorted(m["name"] for m in spec["per_layer"] if m["unit"] == "count")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in range(100 * k + 1, 100 * k + args.runs + 1):
                lines, result = run_workload(spec, workload, seed, args.seconds, False)
                runs.append(result)
                log(f"{workload} set {k + 1} seed {seed} done")
                for line in lines:
                    if line.startswith(("# measured", "# setup", "# sweep", "# solve",
                                        "# overload")):
                        log(line)
            sets.append(runs)
        traced = [run_workload(spec, workload, 1000 + k, args.seconds, True)[1]
                  for k in range(args.traced)]
        print(f"== {workload}: {args.sets} sets of {args.runs} untraced runs, "
              f"{args.traced} traced, {args.seconds} s each")
        print(f"{'metric (set)':<22} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q3 - q1) / med
                medians.append(med)
                if name in EXACT_METRICS:
                    v = "exact" if len(set(values)) == 1 else "NOT EXACT"
                else:
                    v = verdict(spread, bound)
                ok = ok and v not in ("UNSTEADY", "NOT EXACT")
                print(f"{name + f' ({k + 1})':<22} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                      f"{spread:8.2%} {bound:6.2f}  {v}")
            for k, med in enumerate(medians[1:], start=2):
                diff = abs(med - medians[0]) / medians[0]
                v = verdict(diff, bound)
                ok = ok and v != "UNSTEADY"
                print(f"{name + f' median {k} vs 1':<22} {diff:51.2%} {bound:6.2f}  {v}")
            if name in EXACT_METRICS and len(set(medians)) > 1:
                ok = False
                print(f"{name} differs between sets: {medians}")
        for name in counts:
            values = sorted({r["metrics"][name]["value"] for r in traced})
            if len(values) > 1:
                ok = False
                print(f"count {name} differs across traced runs: {values}")
        for name in ("trace.sweep_overhead_pct", "trace.p50_overhead_pct"):
            vals = [r["metrics"][name]["value"] for r in traced]
            if vals:
                print(f"{name}: {', '.join(f'{v:+.2f}%' for v in vals)}")
        everything = [r for runs in sets for r in runs] + traced
        bad = sum(1 for r in everything if not r["correct"] or r["failed"])
        if bad:
            ok = False
            print(f"{bad} runs reported correct=false or failed operations")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    args = parser.parse_args()
    if not args.selfcheck and (not args.workload or len(args.workload) != 1
                               or args.seed is None):
        parser.error("a run needs exactly one --workload and a --seed")

    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        os.chdir(ROOT)
        build()
        prepare()
        if args.selfcheck:
            return selfcheck(spec, args)
        lines, _ = run_workload(spec, args.workload[0], args.seed, args.seconds,
                                args.trace == 1)
        print("\n".join(lines), flush=True)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
