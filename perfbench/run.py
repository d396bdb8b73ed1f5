#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload wafer_yield|fault_grade|fleet_life
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
the flexicores libraries and the perfbench driver (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, else .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the driver's JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build(bdir):
    """Configure (once) and build the driver; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["wafer_yield", "fault_grade", "fleet_life"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be >= 0")

    bdir = build_dir()
    if not build(bdir):
        return 1

    workdir = os.path.join(bdir, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workdir", workdir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload,
                "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
    env = dict(os.environ, FLEXI_THREADS="1")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
