#!/usr/bin/env python3
"""mrlg-bench entry point: build the benchmark program from source, then run it.

Run from the repository root:

    python3 mrlg_bench/run.py --workload matrix_mult_a --seed 0 --seconds 18 --trace 0

Every argument is passed on to the program (see README.md). The program is
built in Release mode under $CARGO_TARGET_DIR (default .bench_build); the
build is a no-op when nothing changed. Build output goes to stderr, so the
last stdout line is the program's JSON result.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "mrlg_bench"


def source_rev():
    """The git revision, or a digest of the sources where there is no git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True)
            if out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(p for p in tree.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def build():
    """Configures and builds the program; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("mrlg-bench: no mrlg sources at %s/src; cannot build" % ROOT, file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "mrlg_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("mrlg-bench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return None
    return out / "mrlg_bench"


def main(argv):
    exe = build()
    if exe is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([str(exe), *argv, "--rev", source_rev()]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
