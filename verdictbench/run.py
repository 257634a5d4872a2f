#!/usr/bin/env python3
"""Build and run the verdict benchmark.

Usage (from the root of a source checkout):

    python3 verdictbench/run.py --workload fig6-deep --seed 1 --seconds 15 --trace 0

Builds verdictbench/vbench.exe with dune into the build directory named by
CARGO_TARGET_DIR (default .bench_build), then runs it with the same
arguments.  The executable prints human-readable metric lines and, as its
last line, one JSON object with the keys correct/attempted/failed/metrics.
Extra arguments (such as --verdicts N, used by the determinism test) are
passed through.

Compute runs on one domain: DOMAINS and OCAMLRUNPARAM are removed from the
environment.  The executable pins its work and its speed probe
(verdictbench/probe.exe, whose samples normalize the time metrics) to one
CPU; see NOTES.md.  The exit code is the executable's; a failed build exits
2 without printing a result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    env = dict(os.environ)
    for var in ("DOMAINS", "OCAMLRUNPARAM", "DUNE_BUILD_DIR"):
        env.pop(var, None)
    # Keep every build artifact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = [
        "dune", "build", "--root", root, "--profile", "release",
        "--build-dir", build_dir, "--display", "quiet",
        "./verdictbench/vbench.exe", "./verdictbench/probe.exe",
    ]
    try:
        done = subprocess.run(build, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("verdictbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if done.returncode != 0:
        print("verdictbench: build failed (exit %d)" % done.returncode,
              file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "verdictbench", "vbench.exe")
    sys.stdout.flush()
    # A process group of its own, so a timeout also stops the daemon or
    # fixpoint child the benchmark may have forked.
    proc = subprocess.Popen([exe, "--out", build_dir] + sys.argv[1:], env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("verdictbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
