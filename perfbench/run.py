#!/usr/bin/env python3
"""Build the LRP simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
perfbench/lrpbench.exe with dune (the first build compiles the library
too), runs it, and prints the benchmark's output; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer split.  It exits non-zero, without a result line, if the
checkout has no library to build or the run fails.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

TARGET = "./perfbench/lrpbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "lrpbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    prefixes += sorted(glob.glob(os.path.expanduser("~/.opam/*")))
    for prefix in prefixes:
        candidate = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(candidate, os.X_OK):
            return candidate
    return None


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project and lib/ here: run from the root of a checkout")
    dune = find_dune()
    if dune is None:
        fail("dune not found")
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    # The traced run reads GC phases through Runtime_events, whose ring
    # file goes here instead of the working directory.
    events_dir = os.path.abspath(os.path.join("_build", "perfbench-events"))

    start = time.monotonic()
    try:
        build = subprocess.run(
            # No shared dune cache: the build reads and writes only here.
            [dune, "build", "--root", ".", "--profile", "release", "--cache=disabled", TARGET],
            env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")
    print(f"build: {time.monotonic() - start:.1f} s", file=sys.stderr)

    os.makedirs(events_dir, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events_dir
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
