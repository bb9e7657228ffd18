#!/usr/bin/env python3
"""Append perfbench runs to the checked-in BENCH_*.json trajectory.

Usage:
    bench_record.py [--tree DIR] [--workload NAME ...] [--seed N ...]
                    [--trace 0|1|both] [--note TEXT]
    bench_record.py --compare FILE

For each seed and workload (default: seed 1 and every workload in
BENCHMARK.json) this runs DIR/perfbench/run.py for the benchmark's
run_seconds, untraced, then traced (--trace picks one), and appends one
row per run to each of two files at the root of this checkout:

  BENCH_serve.json  the serving end-to-end metrics (p50_ms, goodput_rps,
                    rtt_p50_ms, served_top1) and the plan.*, serve.* and
                    socket.* per-layer rows;
  BENCH_sweep.json  the offline end-to-end metrics (setup_s, sweep_s,
                    solve_s, ptq_top1) and the core.* and solver.* rows.

An untraced run reports the end-to-end metrics and a traced run the
per-layer ones, so every run adds a row to both files; perfbench's report
passes through to stdout. DIR defaults to this checkout; pointing it at a
second checkout (say, the parent commit) records before/after pairs in
the same files. A row carries:

  rev       DIR's commit, with "+dirty" when its src/ or perfbench/
            differ from that commit (the measured code is uncommitted);
  note      --note, free text such as "before: <what changes>";
  workload, seed, trace, seconds, date (UTC);
  cpu, nproc, kernel, build    from perfbench's "# host" line;
  threads   the thread budget from its "# threads" line;
  correct, attempted, failed   from its result line;
  metrics   name -> value, in the units BENCHMARK.json declares.

Wall-clock rows depend on the host and its load. Compare rows from the
same host, taken in alternating before/after pairs; they never gate CI.
This tool only reads perfbench's output and changes nothing under
perfbench/.

--compare FILE reads a BENCH_*.json file and runs nothing. It takes the
last two distinct revs in the file (in order of first appearance: the
first is "before", the second "after") and pairs their rows by
(workload, seed, trace); a key recorded twice for one rev keeps its
later row. For each workload and metric it prints each side's median
[q1, q3] over the pairs and how many pairs the after row wins, a win
being strictly better in the direction BENCHMARK.json declares for that
metric. It never judges the values: the exit status is 0 unless FILE is
malformed (2).
"""

import argparse
import datetime
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERVE_FILE = "BENCH_serve.json"
SWEEP_FILE = "BENCH_sweep.json"
SERVE_E2E = ("p50_ms", "goodput_rps", "rtt_p50_ms", "served_top1")
SWEEP_E2E = ("setup_s", "sweep_s", "solve_s", "ptq_top1")
SERVE_PREFIXES = ("plan.", "serve.", "socket.")
SWEEP_PREFIXES = ("core.", "solver.")
ABOUT = {
    SERVE_FILE: "perfbench serving metrics, one row per run (tools/bench_record.py): "
                "untraced rows carry p50_ms, goodput_rps, rtt_p50_ms and served_top1, "
                "traced rows the plan.*, serve.* and socket.* rows. Units as in "
                "BENCHMARK.json. Compare rows from one host in alternating pairs.",
    SWEEP_FILE: "perfbench offline metrics, one row per run (tools/bench_record.py): "
                "untraced rows carry setup_s, sweep_s, solve_s and ptq_top1, traced "
                "rows the core.* and solver.* rows. Units as in BENCHMARK.json. "
                "Compare rows from one host in alternating pairs.",
}
HOST_RE = re.compile(r'^# host cpu="(?P<cpu>[^"]*)" nproc=(?P<nproc>\d+) '
                     r'kernel=(?P<kernel>\S+) build=(?P<build>\S+)')
THREAD_RE = re.compile(r"(\w+)=(\d+)")


def parse_run(stdout):
    """Host fingerprint, thread budget and result of one perfbench stdout."""
    lines = stdout.rstrip("\n").split("\n")
    host = threads = None
    for line in lines:
        if (m := HOST_RE.match(line)) is not None:
            host = {"cpu": m["cpu"], "nproc": int(m["nproc"]), "kernel": m["kernel"],
                    "build": m["build"]}
        elif line.startswith("# threads "):
            threads = {k: int(v) for k, v in THREAD_RE.findall(line.split("(")[0])}
    if host is None or threads is None:
        raise ValueError("perfbench output has no '# host' or '# threads' line")
    return host, threads, json.loads(lines[-1])


def split_metrics(metrics):
    """(serving, offline) name -> value maps of one result line."""
    serve, sweep = {}, {}
    for name, m in metrics.items():
        if name in SERVE_E2E or name.startswith(SERVE_PREFIXES):
            serve[name] = m["value"]
        elif name in SWEEP_E2E or name.startswith(SWEEP_PREFIXES):
            sweep[name] = m["value"]
    return serve, sweep


def git(tree, *args):
    out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def tree_rev(tree):
    rev = git(tree, "rev-parse", "--short", "HEAD")
    return rev + "+dirty" if git(tree, "status", "--porcelain", "--", "src", "perfbench") else rev


def append_rows(path, rows):
    """Appends to {"about": ..., "rows": [...]}, one row per line."""
    old = json.loads(path.read_text())["rows"] if path.exists() else []
    body = ",\n".join("  " + json.dumps(r) for r in old + rows)
    path.write_text('{\n "about": ' + json.dumps(ABOUT[path.name]) + ',\n "rows": [\n' +
                    body + "\n ]\n}\n")


def record(tree, workload, seed, traced, seconds, note):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    host, threads, result = parse_run(proc.stdout)
    head = {"rev": tree_rev(tree), "note": note, "workload": workload, "seed": seed,
            "trace": int(traced), "seconds": seconds,
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            **host, "threads": threads, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}
    serve, sweep = split_metrics(result["metrics"])
    append_rows(ROOT / SERVE_FILE, [{**head, "metrics": serve}])
    append_rows(ROOT / SWEEP_FILE, [{**head, "metrics": sweep}])
    return result


def read_rows(path):
    """The rows of a BENCH file; ValueError names what is malformed."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: {e}") from e
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise ValueError(f"{path}: no 'rows' list")
    for i, row in enumerate(rows):
        ok = (isinstance(row, dict) and isinstance(row.get("rev"), str)
              and isinstance(row.get("workload"), str) and isinstance(row.get("seed"), int)
              and isinstance(row.get("trace"), int) and isinstance(row.get("metrics"), dict)
              and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in row["metrics"].values()))
        if not ok:
            raise ValueError(f"{path}: row {i} lacks a str rev/workload, an int seed/trace "
                             "or a metrics map of numbers")
    return rows


def quartiles(values):
    """Median, q1 and q3 (statistics.quantiles' default, exclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def fmt(value):
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:,.0f}"
    return f"{value:.3f}" if abs(value) >= 0.1 else f"{value:#.3g}"


def compare(path):
    rows = read_rows(path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    revs = list(dict.fromkeys(row["rev"] for row in rows))
    if len(revs) < 2:
        print(f"{path}: {len(revs)} rev(s), nothing to compare")
        return 0
    before, after = revs[-2:]
    side = {before: {}, after: {}}
    for row in rows:
        if row["rev"] in side:
            side[row["rev"]][(row["workload"], row["seed"], row["trace"])] = row
    keys = [k for k in side[before] if k in side[after]]
    unpaired = len(side[before]) + len(side[after]) - 2 * len(keys)
    print(f"{path}: before {before}, after {after}: {len(keys)} pairs by "
          f"(workload, seed, trace), {unpaired} unpaired rows")
    for workload in dict.fromkeys(k[0] for k in keys):
        pairs = [(side[before][k]["metrics"], side[after][k]["metrics"])
                 for k in keys if k[0] == workload]
        lines = [("metric", "before median [q1, q3]", "after median [q1, q3]", "wins")]
        for name in dict.fromkeys(n for b, a in pairs for n in b):
            values = [(b[name], a[name]) for b, a in pairs if name in b and name in a]
            if not values:
                continue
            cells = []
            for column in zip(*values):
                med, q1, q3 = quartiles(column)
                cells.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
            direction = better.get(name)
            if direction is None:
                wins = "-"
            else:
                won = sum((a < b) if direction == "lower" else (a > b) for b, a in values)
                wins = f"{won}/{len(values)}"
            lines.append((f"{name} ({direction or '?'})", *cells, wins))
        widths = [max(len(line[i]) for line in lines) for i in range(3)]
        print(f"\n{workload}")
        for label, old, new, wins in lines:
            print(f"  {label:<{widths[0]}}  {old:>{widths[1]}}  ->  {new:>{widths[2]}}  {wins}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--note", default="")
    parser.add_argument("--compare", type=Path, metavar="FILE")
    args = parser.parse_args()

    if args.compare is not None:
        try:
            return compare(args.compare)
        except ValueError as e:
            print(f"bench_record: error: {e}", file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    modes = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    tree = args.tree.resolve()
    try:
        for seed in args.seed or [1]:
            for workload in workloads:
                for traced in modes:
                    result = record(tree, workload, seed, traced, seconds, args.note)
                    print(f"bench_record: {workload} seed {seed} trace {int(traced)}: "
                          f"correct {result['correct']}, failed {result['failed']}",
                          file=sys.stderr, flush=True)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        print(f"bench_record: error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
