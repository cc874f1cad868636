#!/usr/bin/env python3
"""Builds fegen and the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <figures|islands|islands_proc|serve> \
        --seed N --seconds S --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: .bench_build in the current
directory). Build output goes to standard error; the benchmark's result is
the last line of standard output. Scratch data and trace files go to
.perfbench/ in the current directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, target_dir, extra):
    if not os.path.isfile(manifest):
        sys.exit(f"perfbench: {manifest} is missing; run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(os.path.join(ROOT, "Cargo.toml"), target_dir, ["--bin", "fegen"])
    build(os.path.join(HERE, "Cargo.toml"), target_dir, [])
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--fegen", os.path.join(release, "fegen")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
