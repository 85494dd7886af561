#!/usr/bin/env python3
"""Build and run the tgsim end-to-end benchmark.

Run from the root of a tgsim checkout:

    python3 tgbench/run.py --workload tg_replay --seed 1 --seconds 20 --trace 0
    python3 tgbench/run.py --self-test

The first call configures and builds the tgsim library and the benchmark
(CMake, Release) from this checkout's sources into .bench_build/tgbench, or
into $CARGO_TARGET_DIR/tgbench when that is set; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero without a result when the checkout
has no tgsim sources or the build fails.
"""
import ctypes
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


ADDR_NO_RANDOMIZE = 0x0040000
LIBC = ctypes.CDLL(None, use_errno=True)


def fixed_layout():
    """Turns off address-space randomisation for the benchmark process only.

    Runs in the child between fork and exec. Where the heap and the large
    mappings land otherwise changes from run to run, and with it the speed of
    the simulator's hot loops: a measured source of run-to-run spread.
    """
    persona = LIBC.personality(0xFFFFFFFF)
    if persona != -1:
        LIBC.personality(persona | ADDR_NO_RANDOMIZE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "tgbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("tgbench: %s holds no tgsim sources (src/, CMakeLists.txt)"
              % ROOT, file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("tgbench: build failed", file=sys.stderr)
        return 2
    start_ns = time.monotonic_ns()  # same clock as the program's steady_clock
    cmd = [os.path.join(out, "tgbench")] + sys.argv[1:]
    if "--self-test" not in sys.argv[1:]:
        cmd += ["--start-ns", str(start_ns)]
    return subprocess.run(cmd, cwd=ROOT, preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
