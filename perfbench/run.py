#!/usr/bin/env python3
"""Builds skyup and the benchmark from source, then runs one benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the result object; see perfbench/RECORDS.md.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build chatter goes to stderr so the last stdout line stays the result.
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    bench_manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(root_manifest) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: run from the root of a skyup checkout (Cargo.toml and crates/ missing)",
              file=sys.stderr)
        return 3
    if not build(root_manifest, "--bin", "skyup") or not build(bench_manifest):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    release = os.path.join(os.path.abspath(target), "release")
    bench = os.path.join(release, "perfbench")
    skyup = os.path.join(release, "skyup")
    args = [bench, "--skyup", skyup, *sys.argv[1:]]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
