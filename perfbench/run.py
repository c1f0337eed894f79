#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The Rust package in perfbench/ is built (release, offline) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, and then run with
the same arguments. Before the benchmark's own output this prints one
`environment:` line recording the host cores, the rustc version and the
git commit (`unknown` outside a git checkout). The last line of standard
output is the benchmark's JSON result. Workloads, metrics and settings are
described in perfbench/README.md.
"""

import json
import os
import subprocess
import sys

# The benchmark binary must finish within this many seconds of starting;
# building it beforehand may take longer on a cold cache.
RUN_TIMEOUT_S = 170


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not os.path.isfile(os.path.join("crates", "core", "Cargo.toml")):
        print("perfbench: run from the repository root (crates/ not found)", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    commit = capture(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown"
    print("environment: " + json.dumps({
        "nproc": os.cpu_count(),
        "rustc": capture(["rustc", "--version"]),
        "commit": commit,
    }), flush=True)
    binary = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
