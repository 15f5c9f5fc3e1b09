#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench/ (Release) into $CARGO_TARGET_DIR, default .bench_build; later
calls rebuild incrementally.  Build output goes to stderr.  The last line
of stdout is the JSON result of the workload binary, after its metric
names and units have been checked against BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)


def build(out_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources at {os.path.join(ROOT, 'src')}: run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append([cmake, "--build", out_dir, "-j", BUILD_JOBS,
                  "--target", "pphbench", "pphbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 5)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def validate(result, spec, trace):
    """The binary's metrics must be exactly the listed ones, with their units."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result.get("metrics", {})
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metric names disagree with BENCHMARK.json: missing {missing}, extra {extra}", 3)
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            fail(f"{name}: unit {got[name].get('unit')!r}, BENCHMARK.json says {unit!r}", 3)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        fail("no operation attempted", 3)


def run_binary(command, cwd):
    """Run to completion; on timeout the child is killed and reaped."""
    try:
        return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(command[0])} exceeded {RUN_TIMEOUT_S} s", 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's own checks")
    args = parser.parse_args()

    spec = load_spec()
    out_dir = build_dir()
    build(out_dir)
    scratch = os.path.join(out_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    if args.self_test:
        done = run_binary([os.path.join(out_dir, "pphbench_selftest"), scratch], ROOT)
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)

    if not args.workload:
        fail("--workload is required")
    command = [
        os.path.join(out_dir, "pphbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
    ]
    done = run_binary(command, ROOT)
    if done.returncode != 0:
        fail(f"pphbench exited with {done.returncode}", done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("pphbench printed no result", 3)
    result = json.loads(lines[-1])
    validate(result, spec, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
