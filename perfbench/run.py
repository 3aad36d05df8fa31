#!/usr/bin/env python3
"""Build and run the plsim performance benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_jobs|vp_fig1 \
        --seed N --seconds S --trace 0|1

Builds plsim from ../src and the benchmark binary, plsim_perfbench, with CMake
into $CARGO_TARGET_DIR (default .bench_build), then runs it. Build output
goes to stderr; the benchmark's last stdout line is the result JSON. Exits
nonzero when a job failed its check, when the build fails, or when the run
exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_jobs", "vp_fig1")
RUN_TIMEOUT_S = 170


def cache_source(build_dir):
    """The source directory a CMake cache in build_dir was made for, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configure (once) and build plsim_perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    source = cache_source(build_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        # A cache made for another source tree cannot be reused: drop the
        # cache, keep the rest of the build directory.
        os.remove(os.path.join(build_dir, "CMakeCache.txt"))
        shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
        source = None
    if source is None:
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    built = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "plsim_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        return None
    return os.path.join(build_dir, "plsim_perfbench")


def socket_path(build_dir):
    # sun_path holds 108 bytes: keep the socket path relative and short.
    path = os.path.relpath(os.path.join(build_dir, "plsimd-%d.sock" % os.getpid()))
    return path if len(path) < 100 else ".plsimd-%d.sock" % os.getpid()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "spans")
    os.makedirs(out_dir, exist_ok=True)
    sock = socket_path(build_dir)
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir, "--socket", sock],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if os.path.exists(sock):
            os.unlink(sock)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
