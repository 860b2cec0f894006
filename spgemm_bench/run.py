#!/usr/bin/env python3
"""Build and run the SpGEMM benchmark.

    python3 spgemm_bench/run.py --workload fem_square --seed 1 --seconds 10 --trace 0
    python3 spgemm_bench/run.py --selftest

Run from the root of a checkout. The benchmark and the library sources it
needs are compiled (Release) into .bench_build/spgemm_bench; later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run (--trace 1) writes its
span log to .bench_build/spgemm_bench/traces/. Exits non-zero, without a
result, when the build or the benchmark fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "spgemm_bench")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, target)


def main(argv):
    target = "spgemm_bench_selftest" if "--selftest" in argv else "spgemm_bench"
    args = [a for a in argv if a != "--selftest"]
    try:
        binary = build(target)
    except OSError as e:  # cmake missing
        print(f"spgemm_bench: build failed: {e}", file=sys.stderr)
        return 2
    if binary is None:
        print("spgemm_bench: build failed", file=sys.stderr)
        return 2
    if target == "spgemm_bench":
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-dir", trace_dir]
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"spgemm_bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
