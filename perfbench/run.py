#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-golden [--seeds 0-63]

The benchmark is built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of a run's standard output is its JSON result; traced runs also write their
spans to <build>/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "reference.txt")
RUN_TIMEOUT_S = 170
GOLDEN_JOBS = 3


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets):
    """Configures and builds `targets`; False (log tail on stderr) on failure."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", *targets],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    return False


def run(cmd, timeout=RUN_TIMEOUT_S):
    """Runs `cmd` with stdout passed through; returns its exit code."""
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %ds\n" % (cmd[0], timeout))
        return 1


def write_golden(seeds):
    first, last = (int(x) for x in seeds.split("-"))
    parts, procs = [], []
    for j in range(GOLDEN_JOBS):
        lo = first + j * (last - first + 1) // GOLDEN_JOBS
        hi = first + (j + 1) * (last - first + 1) // GOLDEN_JOBS - 1
        if lo > hi:
            continue
        part = os.path.join(build_dir(), "golden-%d.txt" % j)
        parts.append(part)
        procs.append(subprocess.Popen([os.path.join(build_dir(), "perfbench"),
                                       "--write-golden", part,
                                       "--seeds", "%d-%d" % (lo, hi)]))
    if any(p.wait() for p in procs):
        return 1
    with open(GOLDEN, "w") as out:
        for i, part in enumerate(parts):
            with open(part) as f:
                # Keep the comment header once, from the first part.
                out.writelines(l for l in f if i == 0 or not l.startswith("#"))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    p.add_argument("--seeds", default="0-63")
    args = p.parse_args()

    if args.self_test:
        if not build(["perfbench_selftest"]):
            return 1
        return run([os.path.join(build_dir(), "perfbench_selftest")], timeout=600)
    if not build(["perfbench"]):
        return 1
    if args.write_golden:
        return write_golden(args.seeds)
    if not args.workload:
        p.error("--workload is required")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    return run([os.path.join(build_dir(), "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", args.trace,
                "--golden", GOLDEN, "--trace-dir", traces])


if __name__ == "__main__":
    sys.exit(main())
