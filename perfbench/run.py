#!/usr/bin/env python3
"""Round benchmark of the Tor directory-protocol simulator.

Run from the repository root:

  python3 perfbench/run.py --workload round-clean --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --compare BASE_DIR CHANGE_DIR

The first form builds perfbench/roundbench (and roundbench_traced, which
serves --trace 1) from this checkout's sources into a build directory of the
checkout's own, $CARGO_TARGET_DIR/perfbench-<hash of the checkout's path>
(default CARGO_TARGET_DIR: .bench_build in the checkout), runs one workload,
and passes its output through: one "metric NAME VALUE UNIT" line per metric,
then one JSON result line. It exits non-zero when the build fails or any
checked output differs from its reference.

The second form compares two sets of saved outputs (one file per run, each the
captured stdout of the first form) per workload and metric; see README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("round-clean", "outage-day")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    """This checkout's build directory.

    Checkouts that share one CARGO_TARGET_DIR (a base and a change tree in
    compare mode) get one directory each, keyed by the checkout's path, so
    neither ever runs the other's binary.
    """
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:16]
    return os.path.join(os.path.abspath(target), "perfbench-" + key)


def build():
    """Configures and builds roundbench and roundbench_traced; returns their directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail(f"{ROOT} is not a full checkout: the library sources (src/) are missing")
    out = build_dir()
    # Configure on every run: cmake refuses a cache made from another source
    # tree, so a reused directory can never build someone else's sources.
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for step in (configure, ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def binary(out, trace):
    """The binary that serves a trace mode: only the traced one counts allocations."""
    return os.path.join(out, "roundbench_traced" if trace else "roundbench")


def run_benchmark(args):
    command = [binary(build(), args.trace), "--workload", args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--reference",
               os.path.join(HERE, "reference.txt")]
    if args.relays is not None:
        command += ["--relays", str(args.relays)]
    if args.pin:
        command.append("--pin")
    sys.stdout.flush()
    return subprocess.run(command).returncode


# --- compare mode ------------------------------------------------------------

def parse_output(path):
    """(workload, trace, {metric: (value, unit)}) of one saved run."""
    workload, trace, metrics = None, None, {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            if fields[:1] == ["roundbench"]:
                header = dict(field.split("=", 1) for field in fields[1:] if "=" in field)
                workload, trace = header.get("workload"), header.get("trace")
            elif fields[:1] == ["metric"] and len(fields) == 4:
                metrics[fields[1]] = (float(fields[2]), fields[3])
    if workload is None:
        fail(f"{path}: not a roundbench output (no header line)")
    return workload, trace, metrics


def load_runs(directory):
    """{(workload, trace): [metrics of each run, in file-name order]}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            workload, trace, metrics = parse_output(path)
            runs.setdefault((workload, trace), []).append(metrics)
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(base_dir, change_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    better_of = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_runs(base_dir), load_runs(change_dir)
    regressions = 0
    for key in sorted(set(base) & set(change), key=str):
        workload, trace = key
        a_runs, b_runs = base[key], change[key]
        print(f"\n== {workload} (trace={trace}): {len(a_runs)} base runs, "
              f"{len(b_runs)} change runs")
        print(f"{'metric':34} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'delta':>8} {'bound':>6} {'wins':>7}  verdict")
        names = [n for n in a_runs[0] if all(n in r for r in a_runs + b_runs)]
        for name in names:
            a = [r[name][0] for r in a_runs]
            b = [r[name][0] for r in b_runs]
            unit = a_runs[0][name][1]
            aq1, am, aq3 = summary(a)
            bq1, bm, bq3 = summary(b)
            lower = better_of.get(name, "lower") == "lower"
            improves = (lambda x, y: y < x) if lower else (lambda x, y: y > x)
            # Alternating base/change pairs in run order; ties count for neither.
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if improves(x, y))
            delta = (bm - am) / am if am else float("nan")
            worse = delta if lower else -delta
            bound = bounded[name]["bound"] if name in bounded else None
            spread = (aq3 - aq1) / am if am else float("nan")
            if pairs and wins >= 0.9 * len(pairs) and abs(bm - am) > aq3 - aq1:
                verdict = "gain"
            elif bound is None:
                verdict = "report-only"
            elif spread > bound and not (max(b) < min(a) if lower else min(b) > max(a)):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "no regression"
            print(f"{name:34} {am:>14.6g} [{aq1:.6g}, {aq3:.6g}] {unit:<4}"
                  f" {bm:>14.6g} [{bq1:.6g}, {bq3:.6g}] {unit:<4}"
                  f" {delta:>+8.1%} {'' if bound is None else f'{bound:.0%}':>6}"
                  f" {wins:>3}/{len(pairs):<3}  {verdict}")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--relays", type=int, help="population size (default: Tor scale, 8000)")
    parser.add_argument("--pin", action="store_true",
                        help="print each output's reference line instead of checking it")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "CHANGE_DIR"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
