#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed 1 --seconds S --trace 0 \\
        --write-reference
    python3 perfbench/run.py --selftest

Builds perfbench_driver from source into .bench_build/perfbench under the
repository root (Release; only the first call compiles), runs one workload
and prints its result JSON as the last line of standard output.
BENCHMARK.json is the list of workloads and metrics: the driver's metrics
must be exactly its end_to_end set (--trace 0) or its per_layer set
(--trace 1), and take their units from it.
Build logs and diagnostics go to standard error. Any failure exits non-zero
without printing a result.

--write-reference refreshes perfbench/reference/<workload>.txt from the
default seed's outputs. --selftest builds and runs perfbench_selftest.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures on first use, then builds `targets` (a no-op when current)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", *targets],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def with_units(metrics, declared):
    """The contract's {"name": {"value": v, "unit": u}} form of the driver's
    {"name": v}; fails unless the names are exactly the declared ones."""
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"undeclared {extra}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in metrics}


def run_workload(args, bench):
    build(["perfbench_driver"])
    reference = os.path.join(HERE, "reference", f"{args.workload}.txt")
    cmd = [os.path.join(BUILD, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--write-reference" if args.write_reference else "--reference", reference]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        raise RuntimeError("perfbench_driver printed no result line")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = with_units(result["metrics"], declared)
    print(json.dumps(result), flush=True)


def selftest():
    build(["perfbench_selftest"])
    return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          timeout=RUN_TIMEOUT_S).returncode == 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return 0 if selftest() else 1
        if args.workload is None:
            parser.error("--workload is required")
        if args.write_reference and args.seed != 1:
            parser.error("--write-reference records the default seed, 1")
        run_workload(args, bench)
        return 0
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
