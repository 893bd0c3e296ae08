#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload pipeline|adapt-scale|serve \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (and the libraries it links) into .bench_build/perfbench; later
runs only check that the build is current. The benchmark's last line of
stdout is one JSON object with the run's result. The exit status is not 0
when the build or the run fails, and then no result is printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/; "
                 "run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        rc, _ = run(cfg, BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            sys.exit("perfbench: configuring the build failed")
    rc, _ = run(["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S, sys.stderr)
    if rc != 0:
        sys.exit("perfbench: the build failed")


def digest(path):
    """The first 16 hex digits of the SHA-256 of the file at path."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["pipeline", "adapt-scale", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        sys.exit("perfbench: --seed must be >= 0 and --seconds in [1, 60]")

    build()
    for sub in ("counts", "spans"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    tag = f"{args.workload}-{args.seed}"
    # The counts of a seed must repeat across runs of the same build only:
    # a change to the code may change them on purpose.
    record = f"{tag}-{digest(binary)}.txt"
    cmd = [binary,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", os.path.join(BUILD, "counts", record)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, "spans", tag + ".json")]
    rc, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.decode().splitlines()
    if rc != 0 or not lines:
        sys.exit(f"perfbench: the benchmark exited with status {rc}")
    json.loads(lines[-1])  # The result line must be one JSON object.
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
