#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload local --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the driver's last stdout line is the JSON
result.  A traced run (--trace 1) also writes its spans to
perfbench/out/<workload>.spans.tsv.  Exits non-zero, printing no
result, when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def arg(argv, name):
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ not found)",
              file=sys.stderr)
        return 2
    # No shared dune cache: the build writes only under _build here.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=840)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    extra = []
    if arg(argv, "--trace") == "1" and arg(argv, "--workload"):
        out = os.path.join("perfbench", "out")
        os.makedirs(out, exist_ok=True)
        extra = ["--spans", os.path.join(out, arg(argv, "--workload") + ".spans.tsv")]
    proc = subprocess.Popen([EXE] + argv + extra)
    try:
        return proc.wait(timeout=170)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
