#!/usr/bin/env python3
"""Entry point of the end-to-end KBC benchmark (see NOTES.md).

    python3 kbcbench/run.py --workload spouse_update --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds
kbcbench/ together with ../src into .bench_build (or $CARGO_TARGET_DIR
when set); later runs rebuild incrementally. Build output goes to
stderr, so the last line of stdout is always the benchmark's result
object. Every other argument is passed to the kbc_bench binary.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s, printing its result


def fail(message):
    print("kbcbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("system sources not found at %s" % os.path.join(ROOT, "src"))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    workdir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "kbc_bench")] + argv + ["--workdir", workdir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
