#!/usr/bin/env python3
"""Build the harvest benchmark from source and run one workload.

Run from the repository root:

    python3 harvestbench/run.py --workload <harvest_inproc|harvest_wire|replay_portfolio> \
        --seed <n> --seconds <n> --trace <0|1>

The benchmark is its own Cargo package (harvestbench/Cargo.toml) that
builds the repository's crates as path dependencies, in release mode, into
$CARGO_TARGET_DIR (default: .bench_build). Build output goes to standard
error; the last line of standard output is the benchmark's JSON result.
Exits non-zero without a result when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
MANIFEST = ROOT / "harvestbench" / "Cargo.toml"
# Inputs whose bytes decide what the benchmark measures.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "third_party", "harvestbench"]
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the source tree, for checkouts that carry no git commit."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        if path.is_file():
            files = [path]
        else:
            files = sorted(
                f for f in path.rglob("*") if f.is_file() and "target" not in f.parts
            )
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not MANIFEST.is_file():
        print(f"no benchmark manifest at {MANIFEST}", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    env["HARVESTBENCH_COMMIT"] = git_commit()
    env["HARVESTBENCH_SOURCE_DIGEST"] = source_digest()
    try:
        run = subprocess.run(
            [str(target / "release" / "harvestbench")] + sys.argv[1:],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
