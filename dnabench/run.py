#!/usr/bin/env python3
"""Builds dnabench from this checkout's sources and runs one workload.

    python3 dnabench/run.py --workload <narrow-edits|routing-churn|read-flood> \
        --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; paths are resolved against the checkout that holds this
file. The build lives in .bench_build/dnabench (the first run configures and
compiles the library, later runs only relink what changed); build output
goes to stderr. The benchmark's own last stdout line is its JSON result.
Exits non-zero, printing no result, when the sources are missing or the
build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "dnabench"
WORK = ROOT / ".bench_build" / "run"


def build() -> Path:
    if not (ROOT / "src" / "service" / "service.h").is_file():
        sys.exit(f"dnabench: no library sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("dnabench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "dnabench"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        sys.exit("dnabench: build failed")
    return BUILD / "dnabench"


def main() -> int:
    binary = build()
    command = [str(binary), *sys.argv[1:], "--work-dir", str(WORK)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
