#!/usr/bin/env python3
"""Build and run the bpsim repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the bpsim libraries, the
real campaign_server and the benchmark program) into
.bench_build/perfbench; later runs only re-check the build. Every run
then executes the self-tests and the benchmark program, whose last
stdout line is the JSON result.
Workloads: campaign-batched, campaign-scalar, service-hot, service-mixed.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")):
        if not run_quiet(["cmake", "-S", SRC, "-B", BUILD, "-G", "Ninja",
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs], 850)


def run_benchmark(argv):
    """Run the benchmark in its own process group; kill it on timeout."""
    proc = subprocess.Popen([os.path.join(BUILD, "perfbench")] + argv,
                            cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run_quiet([os.path.join(BUILD, "perfbench_selftest")], 60):
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run_benchmark(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
