#!/usr/bin/env python3
"""Builds livebench when needed, then runs it with the given arguments.

Run from the repository root:

    python3 livebench/run.py --workload drag_large --seed 1 --seconds 25 --trace 0

The binary goes to `$CARGO_TARGET_DIR/release` (default `livebench/target`)
and is rebuilt only when it is missing or older than a source it is built
from. `cargo run` would not do: outside a git checkout the server crate's
build script reruns on every call, which recompiles the server before each
run and leaves the caches cold for the measurement. Build output goes to
standard error, so the last line of standard output stays the result.

The benchmark process (server, load thread and calibration thread alike)
is pinned to one CPU: with one closed-loop connection only one of its
threads has work at a time, and on a two-vCPU VM the wake-ups between
vCPUs and the memory allocator's per-CPU behaviour moved latencies and
peak RSS from run to run (see README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE_SUFFIXES = (".rs", ".toml", ".lock", ".little")


def newest_source():
    """The latest modification time among the benchmark's and the
    repository crates' sources and manifests."""
    newest = 0.0
    # The crates inherit their package fields from the root manifest.
    for path in (os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, ".cargo", "config.toml")):
        if os.path.exists(path):
            newest = max(newest, os.path.getmtime(path))
    for top in (HERE, os.path.join(ROOT, "crates")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d != "target"]
            for name in filenames:
                if name.endswith(SOURCE_SUFFIXES):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "livebench")
    if not os.path.exists(binary) or os.path.getmtime(binary) < newest_source():
        build = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit(f"livebench: build failed ({build.returncode})")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
