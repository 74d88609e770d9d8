#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 ftlbench/run.py --workload replicate|keyed|durable --seed N \
        --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
benchmark (CMake, ftlbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. Build
output goes to stderr, so the last line of stdout is always the result
object printed by the benchmark binary. The exit status is the binary's:
0 when every reply and the final replica state were correct.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    gen = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        gen = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "ftlbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ftlbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "ftlbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["replicate", "keyed", "durable"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--corrupt-reply", type=int, default=-1,
                   help="self-test: corrupt this reply of the timed loop before checking it")
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"ftlbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(build_dir, "scratch"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.corrupt_reply >= 0:
        cmd += ["--corrupt-reply", str(args.corrupt_reply)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("ftlbench: benchmark timed out", file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("ftlbench: no result line", file=sys.stderr)
        return proc.returncode or 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
