#!/usr/bin/env python3
"""Builds and runs the lph-serve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --smoke

Run it from the repository root. It builds the release `lph-serve` binary
into $CARGO_TARGET_DIR (default `target`) and the `perfbench` package into
its `perfbench` subdirectory, then runs `perfbench` with the same
arguments. Build output goes to standard error; the last line of standard
output is the result object.

The two builds get separate target directories because they belong to
different workspaces: sharing one, each would find the other's build of
the common crates stale and rebuild it on every run.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the repository root (no Cargo.toml or crates/ here)",
              file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    bench_target = os.path.join(target, "perfbench")
    builds = [
        (target, ["--bin", "lph-serve"]),
        (bench_target, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")]),
    ]
    for target_dir, args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    cmd = [os.path.join(bench_target, "release", "perfbench"),
           "--server", os.path.join(target, "release", "lph-serve")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
