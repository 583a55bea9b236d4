#!/usr/bin/env python3
"""Build the DF3 benchmark and run one workload.

    python3 perfbench/run.py --workload district_week --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, then runs it with
the given arguments. The last line it prints is the result JSON; build
output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Build the benchmark and return the path of its executable."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def main():
    exe = build()
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
