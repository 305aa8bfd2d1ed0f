#!/usr/bin/env python3
"""Build and run the device benchmark.

    python3 devbench/run.py --workload vote_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (devbench/CMakeLists.txt, which compiles the repository's src/)
under $CARGO_TARGET_DIR or .bench_build; later runs only re-check the build.
Store files, floor probes and span dumps go to <build root>/devbench-work.
The benchmark binary's last stdout line is the JSON result; this script
passes its output and exit status through unchanged.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 880


def run_timeout_s(seconds):
    """A run takes about twice its measured seconds (a fresh set-up, prefill
    and warm-up per segment); allow well over that."""
    return 60 + 4 * seconds


def log(text):
    print(f"devbench/run.py: {text}", file=sys.stderr, flush=True)


def commit_id(root):
    """HEAD when `root` is itself a git work tree, else "unknown"."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def tree_digest(root):
    """Digest of the sources the benchmark builds: src/ and devbench/."""
    digest = hashlib.sha256()
    for top in ("src", "devbench"):
        base = os.path.join(root, top)
        for directory, subdirs, files in os.walk(base):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def build(root, build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append([cmake, "-S", os.path.join(root, "devbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append([cmake, "--build", build_dir, "--target", "devbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    binary = os.path.join(build_dir, "devbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="any integer; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    build_dir = os.path.join(build_root, "devbench")
    work_dir = os.path.join(build_root, "devbench-work")

    binary = build(root, build_dir)
    if binary is None:
        return 2
    os.makedirs(work_dir, exist_ok=True)

    # The benchmark binary takes an unsigned 64-bit seed.
    seed = args.seed % (1 << 64)
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--dir", work_dir, "--commit", commit_id(root),
               "--tree", tree_digest(root)]
    timeout = run_timeout_s(args.seconds)
    process = subprocess.Popen(command, cwd=root)
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log(f"benchmark exceeded {timeout:g} s and was killed")
        return 3
    if code < 0:
        log(f"benchmark crashed with signal {-code}")
        return 4
    if code != 0:
        log(f"benchmark failed with exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
