#!/usr/bin/env python3
"""End-to-end utility benchmark: builds utilitybench from this checkout's
sources into .bench_build/ and runs one workload.

    python3 utilitybench/run.py --workload bulk_socket --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (see NOTES.md). Build output goes
to standard error. Exits non-zero, without a result, when the build or the
run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
WORKLOADS = ("bulk_socket", "train_socket", "bulk_local")
RUN_TIMEOUT_S = 175


def build(env):
    build = os.path.join(ROOT, BUILD_DIR)
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "utilitybench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(build, "utilitybench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    # Compiler and run temporaries stay inside the checkout.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(env)
    sys.stdout.flush()
    # Own process group, so that a timeout stops the forked ranks too.
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: the run exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        sys.exit("run.py: utilitybench exited with code %d" % code)


if __name__ == "__main__":
    main()
