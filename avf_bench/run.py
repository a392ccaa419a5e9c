#!/usr/bin/env python3
"""Build avf_bench from this source tree and run one workload.

    python3 avf_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The framework's sources and the benchmark are built with CMake into
$CARGO_TARGET_DIR/avf_bench (default .bench_build/avf_bench, relative to
the repository root); build output goes to stderr.  Then the binary runs
with the same arguments, so the last line of stdout is its result JSON and
the exit code is its exit code.  Other avf_bench options (--out, --spans,
--reps, --smoke, ...) pass through unchanged.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run that has not finished by then is stuck (a livelocked simulation
# never drains); it is killed and reported as a failure.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "avf_bench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no framework sources under {ROOT}/src; nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory.
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = [cmake, "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        if subprocess.run([cmake, "--build", out_dir, "-j", jobs],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(out_dir, "avf_bench")


def main():
    binary = build(build_dir())
    sys.stdout.flush()
    proc = subprocess.Popen([binary, *sys.argv[1:]])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"avf_bench did not finish within {RUN_TIMEOUT_S} s; killed")
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
