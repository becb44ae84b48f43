#!/usr/bin/env python3
"""Self-test of the round benchmark, at tiny size (300 relays, one iteration).

Run from the repository root:

  python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json and both trace modes, that the
result line has exactly its four keys, that every metric BENCHMARK.json
names is emitted with its unit, and that the output checks ran against the
pinned reference. Then checks that a corrupted reference fails the run, that a
non-default seed runs without the pinned reference, that compare mode reads
the outputs, that two checkouts sharing one CARGO_TARGET_DIR each build and run
their own sources, and that the benchmark refuses to run without the
repository's sources. Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

TINY = ["--relays", "300", "--seconds", "1"]


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def roundbench(out, workload, trace, seed=1, reference=None):
    command = [run.binary(out, trace), "--workload", workload, "--seed", str(seed), "--trace", str(trace),
               "--reference", reference or os.path.join(run.HERE, "reference.txt"), *TINY]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys are {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "attempted is a whole number >= 1")
    check(isinstance(result["failed"], int), "failed is a whole number")
    return result


def cache_home(build_dir):
    """The source directory a build directory's CMake cache was made from."""
    with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip())
    return None


def check_checkouts_build_apart(scratch):
    """Two copies of the tree sharing one CARGO_TARGET_DIR, as a base and a
    change checkout do in compare mode, must each build and run their own
    sources, and a build directory configured from the other copy must fail
    the run instead of running the other copy's binary."""
    target = os.path.join(scratch, "shared-target")
    copies = [os.path.join(scratch, name) for name in ("base", "change")]
    for copy in copies:
        for name in ("src", "perfbench"):
            shutil.copytree(os.path.join(run.ROOT, name), os.path.join(copy, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("CMakeLists.txt", "BENCHMARK.json"):
            shutil.copy(os.path.join(run.ROOT, name), copy)
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    def run_in(copy):
        return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "outage-day",
                               "--seed", "1", "--trace", "0", *TINY], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=900)

    for copy in copies:
        proc = run_in(copy)
        check(proc.returncode == 0, f"{copy} builds and runs:\n{proc.stderr[-2000:]}")
    by_home = {cache_home(os.path.join(target, d)): os.path.join(target, d)
               for d in os.listdir(target)}
    homes = [os.path.realpath(os.path.join(copy, "perfbench")) for copy in copies]
    check(len(by_home) == 2 and sorted(by_home) == sorted(homes),
          f"each checkout has a build directory configured from itself: {by_home}")
    base_dir, change_dir = (by_home[home] for home in homes)
    shutil.copy(os.path.join(base_dir, "CMakeCache.txt"), change_dir)
    proc = run_in(copies[1])
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a build directory configured from another checkout fails the run")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    out = run.build()
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        saved = os.path.join(scratch, "runs")
        os.makedirs(saved)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                proc, lines = roundbench(out, workload, trace)
                check(proc.returncode == 0,
                      f"{workload} trace={trace} exits 0:\n{proc.stderr}")
                result = result_of(lines)
                check(result["correct"] and result["failed"] == 0,
                      f"{workload} trace={trace} passes its checks")
                emitted = result["metrics"]
                check(set(emitted) == {m["name"] for m in metrics},
                      f"{workload} trace={trace} emits exactly the BENCHMARK.json metrics; "
                      f"extra {sorted(set(emitted) - {m['name'] for m in metrics})}, "
                      f"missing {sorted({m['name'] for m in metrics} - set(emitted))}")
                for m in metrics:
                    value = emitted[m["name"]]
                    check(value["unit"] == m["unit"] and math.isfinite(value["value"]),
                          f"{workload}: {m['name']} = {value}, want unit {m['unit']}")
                    check(any(line.split()[:2] == ["metric", m["name"]] for line in lines),
                          f"{workload}: {m['name']} printed by name")
                check(any(line.startswith("checks ") and " pinned=yes " in line
                          and " matched=0" not in line for line in lines),
                      f"{workload} trace={trace} compared its outputs with the pinned reference")
                with open(os.path.join(saved, f"{workload}-{trace}.txt"), "w",
                          encoding="utf-8") as saved_run:
                    saved_run.write(proc.stdout)

            # A reference that disagrees must fail the run.
            corrupted = os.path.join(scratch, "reference.txt")
            with open(os.path.join(run.HERE, "reference.txt"), encoding="utf-8") as src, \
                    open(corrupted, "w", encoding="utf-8") as dst:
                for line in src:
                    fields = line.split(" ", 3)
                    if fields[:2] == [workload, "300"]:
                        line = line.replace("ok=1", "ok=0").replace("successful=", "successful=9")
                    dst.write(line)
            proc, lines = roundbench(out, workload, 0, reference=corrupted)
            result = result_of(lines)
            check(proc.returncode != 0 and not result["correct"] and result["failed"] > 0,
                  f"{workload}: a corrupted reference fails the run")

            # Other seeds have no pinned outputs but still run every other check.
            proc, lines = roundbench(out, workload, 0, seed=7)
            result = result_of(lines)
            check(proc.returncode == 0 and result["correct"] and
                  any(" pinned=no " in line for line in lines),
                  f"{workload}: seed 7 runs its checks without the pinned reference")

        proc = subprocess.run([run.binary(out, 0), "--workload", "outage-day", "--seed", "1",
                               "--trace", "1", "--reference",
                               os.path.join(run.HERE, "reference.txt"), *TINY],
                              capture_output=True, text=True, timeout=60)
        check(proc.returncode == 2 and '"correct"' not in proc.stdout,
              "the untraced binary, which counts no allocations, refuses --trace 1")

        compare = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--compare",
                                  saved, saved], capture_output=True, text=True, timeout=60)
        check(compare.returncode == 0 and "round_s.current" in compare.stdout,
              f"compare mode reads saved outputs:\n{compare.stdout}{compare.stderr}")

        check_checkouts_build_apart(scratch)

        # Without the repository's sources the benchmark fails fast and prints
        # no result.
        bare = os.path.join(scratch, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "round-clean",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "a directory without src/ exits non-zero without a result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
