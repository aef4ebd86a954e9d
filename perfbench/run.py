#!/usr/bin/env python3
"""Entry point of the repo benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload ber_surface --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --make-goldens 1 30 --seconds 30

The first call configures and builds perfbench/ (which compiles the
library from ../src) into .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ber_surface", "lane_sim", "serve_mix")


def build(target):
    """Configure once, then build `target`; False if either step fails."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def make_goldens(first, last, seconds):
    """Rewrite goldens.txt with the digests of seeds first..last."""
    lines = ["# FNV-1a-64 payload digests per workload and seed; regenerate with",
             f"#   python3 perfbench/run.py --make-goldens {first} {last} --seconds {seconds}"]
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            out = subprocess.run(
                [os.path.join(BUILD, "perfbench"), "--digest", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds)],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                return 1
            lines.append(out.stdout.strip())
            sys.stderr.write(lines[-1] + "\n")
    with open(os.path.join(HERE, "goldens.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--make-goldens", nargs=2, type=int, metavar=("FIRST", "LAST"))
    args = ap.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if not build("perfbench"):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    if args.make_goldens:
        return make_goldens(*args.make_goldens, args.seconds)
    if not args.workload:
        ap.error("--workload is required")

    workdir = os.path.join(ROOT, ".bench_build", "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--goldens", os.path.join(HERE, "goldens.txt"),
           "--workdir", workdir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
