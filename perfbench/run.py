#!/usr/bin/env python3
"""Build the perfbench binary from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload s3d --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see README.md). Cargo builds into
$CARGO_TARGET_DIR, or perfbench/target when it is unset; its output goes
to stderr so the binary's JSON result stays the last line of stdout. The
traced run (--trace 1) writes its spans under the build directory, in
perfbench-spans/<workload>.tsv, unless --spans names another directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--spans" not in args:
        args += ["--spans", os.path.join(target, "perfbench-spans")]
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
