#!/usr/bin/env python3
"""Build and run the hybridcnn benchmark.

    python3 perfbench/run.py --workload classify_b1 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench (and the hybridcnn library from ../src) into .bench_build/;
later runs rebuild only what changed. Result and trace files go to
.bench_build/out/. The last line of standard output is the result JSON.
Exits non-zero, without a result, when the sources are missing, the
build fails or the benchmark does not finish in time.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
WORKLOADS = ("classify_b1", "serve_cameras", "fault_campaign")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git commit when the tree is a checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "src", "perfbench",
                 "CMakeLists.txt"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip()
            return "git:" + sha.stdout.strip() + ("+dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        fail(f"no hybridcnn sources next to {HERE}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR, "--source-id", source_id()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
