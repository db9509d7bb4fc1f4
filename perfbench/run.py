#!/usr/bin/env python3
"""Build the ccref benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload async-full --seed 1 --seconds 25 \
        --trace 0

The first call configures and builds perfbench/ (the library comes from
src/) into .bench_build/perfbench; later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: 0 only when every check
passed. Without the library sources next to perfbench/ the build cannot
start, and the script exits 2 without a result.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
TARGET = "ccref_perfbench"


def build() -> Path:
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, env=env, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", TARGET,
                    "-j", jobs], stdout=sys.stderr, env=env, check=True)
    return BUILD / TARGET


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no ccref sources at {ROOT / 'src'}; cannot build",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
