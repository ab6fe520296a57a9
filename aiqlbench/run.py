#!/usr/bin/env python3
"""Builds the AIQL benchmark from source and runs one workload.

    python3 aiqlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
repository's libraries plus the benchmark driver (CMake, Release) under
$CARGO_TARGET_DIR/aiqlbench, or .bench_build/aiqlbench when the variable is
unset; later runs only check that the build is current. The driver's
standard output is passed through: its last line is the JSON result. The
exit status is the driver's (non-zero when a correctness check failed), or
2 when the build fails and 3 when the run overruns its time limit; neither
of those prints a result. See aiqlbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hot-investigation", "cold-investigation", "served-ingest")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (Path.cwd() / base / "aiqlbench").resolve()


def build(bdir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no AIQL source tree next to {HERE}")
        return None
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed with status {done.returncode}: "
                f"{' '.join(step)}")
            return None
    binary = bdir / "aiqlbench"
    return binary if binary.is_file() else None


def source_revision():
    """The git commit when available, else a digest of the source tree."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "CMakeLists.txt", ROOT / "src", HERE / "CMakeLists.txt",
             HERE / "src"]
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    # SIGTERM unwinds like Ctrl-C: subprocess.run then kills and reaps the
    # build or benchmark child before run.py exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (not the pinned data)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference fingerprint (gate test)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2

    scratch = bdir / "scratch" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scratch", str(scratch),
               "--commit", source_revision()]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.buffer.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
