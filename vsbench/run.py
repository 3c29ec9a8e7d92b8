#!/usr/bin/env python3
"""Builds ViewSeeker and the benchmark harness from source, then runs one
workload.

    python3 vsbench/run.py --workload hot-turns --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Build output goes to standard error;
standard output ends with the harness's one-line JSON result. Builds land in
$CARGO_TARGET_DIR (default: .bench_build); scratch data in .bench_work/.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot-turns", "cold-scan", "refine")


def fail(msg, code=2):
    print(f"vsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}", 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a ViewSeeker checkout")
    if shutil.which("cargo") is None:
        fail("cargo not found")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    build(root, target, ["-p", "viewseeker-cli"])
    build(root, target, ["--manifest-path", os.path.join(here, "Cargo.toml")])

    work = os.path.join(root, ".bench_work", f"{a.workload}-{os.getpid()}")
    cmd = [
        os.path.join(target, "release", "vsbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--program", os.path.join(target, "release", "viewseeker"),
        "--work", work,
    ]
    try:
        code = subprocess.run(cmd, cwd=root).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_work"))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
