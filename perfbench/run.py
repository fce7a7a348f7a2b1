#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark package
(perfbench/Cargo.toml) against the repository's crates, then runs one
workload. The last line of standard output is the JSON result; the lines
before it are the provenance stamp, notes and every metric with its unit.
Scratch stores go to .bench_work/ and are removed when the run ends;
traced runs leave their spans in .bench_work/spans-<workload>.jsonl.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lineup9_gen", "penalty_sweep_archive", "serve_mixed")
RUN_TIMEOUT_S = 170
# What the tree digest covers when the checkout is not a git repository.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")


def commit_id():
    """The git commit, or a digest of the source tree outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in paths:
            rel = path.relative_to(ROOT)
            if any(part == "target" or part.startswith(".") for part in rel.parts):
                continue
            digest.update(str(rel).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = dict(os.environ)
    # glibc's per-thread arenas make the RSS high-water mark depend on
    # thread timing; one arena makes peak_rss_mib track live memory.
    env["MALLOC_ARENA_MAX"] = "1"
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = ROOT / ".bench_work"
    workdir = work / f"run-{os.getpid()}"
    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--workdir", str(workdir),
        "--spans-out", str(work / f"spans-{args.workload}.jsonl"),
        "--commit", commit_id(),
    ]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
