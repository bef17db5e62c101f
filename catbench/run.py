#!/usr/bin/env python3
"""Build and run the CAT end-to-end benchmark.

    python3 catbench/run.py --workload stag_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
cat::core and the catbench program as a Release build under
.bench_build/catbench (later runs only rebuild what changed); build output
goes to stderr. The program then prints every metric with its unit and, as the last line of
stdout, one JSON object {correct, attempted, failed, metrics}. Results and
span files are written to .bench_build/catbench/results.

Exits non-zero without a result when the checkout holds no CAT sources or
the build fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "catbench"
RESULTS = BUILD / "results"


def source_id():
    """Commit of the checkout, or a digest of its sources when it is not a
    git work tree (the benchmark also runs from exported trees)."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "catbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("catbench: no CAT sources (src/CMakeLists.txt) in this checkout",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "catbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "catbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("catbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "catbench"), *argv, "--root", str(ROOT),
           "--out", str(RESULTS), "--commit", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
