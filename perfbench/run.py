#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload host_incast --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the hicc libraries and the
hicc_perfbench program from source into .bench_build/ (RelWithDebInfo,
the shipping build type), then runs it; its last stdout line is the
JSON result. Build output goes to stderr. Extra flags (--short) pass
through to hicc_perfbench.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
PROGRAM = BUILD_DIR / "perfbench" / "hicc_perfbench"


def build():
    """Configures once, then builds incrementally; returns True on success."""
    build_dir = BUILD_DIR / "perfbench"
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return False
    return True


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """sha256 over the library sources: identifies the code when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no hicc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    out_dir = BUILD_DIR / "out"
    cmd = [str(PROGRAM), *argv, "--out-dir", str(out_dir),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
