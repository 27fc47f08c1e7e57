#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload online_direct --seed 1 --seconds 14 --trace 0

Run from the repository root. The library and the benchmark are compiled into
.bench_build/perfbench (CMake, Release, the repository's portable flags) on
every call; an up-to-date tree only re-checks timestamps. The last line of
stdout is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json under --trace 0 and every
per_layer metric under --trace 1. Earlier lines carry the host and build
fingerprint, the per-rung latency table (--trace 0) and failed_frac. Exits
non-zero, printing no result, when the sources are missing or the build or
the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs]
    for attempt in range(2):
        steps = [compile_] if (BUILD / "CMakeCache.txt").exists() else []
        if not steps:
            steps = [configure, compile_]
        ok = True
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                ok = False
                break
        if ok:
            return True
        # A cache from another source location cannot be reused: start over.
        shutil.rmtree(BUILD, ignore_errors=True)
        if attempt == 0:
            log("build failed; retrying from a clean build directory")
    return False


def source_digest():
    """sha256 over src/ and perfbench/ — identifies the measured code even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "none"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["online_direct", "online_fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "core" / "causal_tad.h").exists():
        log(f"no library sources under {ROOT / 'src'}")
        return 2
    if not build():
        log("build failed")
        return 3

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 5
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench printed no result")
        return 6
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        log("missing metrics: " + ", ".join(sorted(missing)))
        return 7

    for line in lines[:-1]:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
            fingerprint["git_sha"] = git_sha()
            fingerprint["source_sha256"] = source_digest()
            fingerprint["workload"] = args.workload
            line = "fingerprint: " + json.dumps(fingerprint, sort_keys=True)
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
