#!/usr/bin/env python3
"""Builds and runs the repository benchmark on one workload.

    python3 perfbench/run.py --workload <name> [--seed <n>] \
        --seconds <s> --trace <0|1>

Run from the root of the repository. It builds perfbench/ (and with it the
library from source) into .bench_build/perfbench, runs the checker's own
test, then runs one workload. Every metric is printed by name with its
unit; the last line of standard output is the result object, whose metric
names and units are checked against BENCHMARK.json. The exit code is
non-zero if any job failed its oracle check, or if nothing could be
measured (no result line is printed then).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; output goes to stderr.

    The compiler's temporary files go to the build directory too, so the
    build writes nowhere outside the repository.
    """
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                       "--target", "perfbench", "checks_test"],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    if subprocess.run([str(BUILD_DIR / "checks_test")],
                      stdout=sys.stderr).returncode != 0:
        fail("the checker's own test failed")

    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"perfbench exited with {run.returncode} and no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(args.trace)
    if got != declared:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(declared.items()))}")
    print("\n".join(lines), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
