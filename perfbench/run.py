#!/usr/bin/env python3
"""End-to-end PSMR benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
repository's ../src libraries) into .bench_build/perfbench under the current
directory, then runs one workload and relays its output. The last line of
stdout is the JSON result: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fig4-bitmap --seed 1 --seconds 16 --trace 0

Run it from the root of the repository (or of a source checkout of it).
Exits non-zero, printing no result, when the build fails or a correctness
check fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    """Configures (once) and builds psmr_e2e; returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(build_dir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", str(build_dir), "--target", "psmr_e2e", "-j", jobs])
        for cmd in steps:
            rc = subprocess.call(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                sys.stderr.write("build failed: %s\n%s\n" % (" ".join(cmd), "\n".join(tail)))
                sys.exit(1)
    return build_dir / "psmr_e2e"


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="fig4-bitmap, paxos-relay or zipf-rw-ckpt (perfbench/workloads.hpp)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("no psmr sources under %s/src; run from the repository root\n" % root)
        return 2
    out_root = root / ".bench_build"
    binary = build(root, out_root / "perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(root), "--out-dir", str(out_root / "perfbench-out")]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("benchmark timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = out.rstrip("\n").splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(out)
        sys.stderr.write("benchmark failed (exit %d) without a result\n" % proc.returncode)
        return proc.returncode or 1
    # A failed correctness check still prints its result ("correct": false)
    # and exits non-zero.
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
