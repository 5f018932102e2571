#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program (perfbench/main.ml) is built
with dune into the checkout's _build directory, then run once; its
standard output is passed through, and its last line is the result
object. The exit code is non-zero when the checkout cannot be built or
the program fails or prints no result. The program runs confined to one
CPU (see pin_to_one_cpu).
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
# A fresh checkout builds the whole library first (minutes); later runs
# find the build done. A run stays within 180 s, a first run within 900 s.
BUILD_TIMEOUT_S = 700
RUN_LIMIT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def pin_to_one_cpu():
    """Confine the process, and the server it may fork, to one CPU. A
    closed-loop client and its server then hand the CPU to each other
    inside the kernel instead of waking an idle virtual CPU, whose wake-up
    time is the shared host's, not the program's."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the program may have a forked server) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def main():
    for needed in ("dune-project", os.path.join("lib", "core", "database.mli")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full checkout" % needed)
    # The shared dune cache lives outside the checkout; keep the build local.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_group(
        ["dune", "build", "--root", ".", "-j", "2", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % code)
    code, out = run_group(
        [EXE] + sys.argv[1:],
        RUN_LIMIT_S,
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=pin_to_one_cpu,
    )
    lines = out.strip().splitlines()
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("main.exe exited with %d" % code)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("main.exe printed no result")
    if set(result) != RESULT_KEYS:
        fail("malformed result keys %s" % sorted(result))


if __name__ == "__main__":
    main()
