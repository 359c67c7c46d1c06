#!/usr/bin/env python3
"""Build the benchmark executable from source and run one workload.

    python3 perfbench/run.py --workload job-exec --seed 42 --seconds 20 --trace 0

Run from the root of a source tree. The first call builds
perfbench/main.exe with dune into the tree's _build, with dune's shared
cache off so that nothing is written outside the tree; later calls reuse
the build. Every argument is passed through to the executable, whose last
stdout line is the JSON result. The exit status is the executable's, or 2
when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune", ".tsv")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "-j", "2",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    args = [EXE, "--refs", os.path.join(HERE, "refs"), "--commit", revision()]
    return subprocess.run(args + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
