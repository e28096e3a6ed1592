#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload edit-loop|campaign|serve-mix \
        --seed N --seconds S --trace 0|1

The harness is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), and then run from the repository root with the same arguments. Its
standard output is passed through; the last line is one JSON object with
the keys correct, attempted, failed and metrics. The exit code is the
harness's, or 1 when the build fails.

The harness's own unit tests (tail percentile, span attribution, error
accounting) run with:

    cargo test --release --manifest-path perfbench/Cargo.toml
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
