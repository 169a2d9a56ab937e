#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sort-keys --seed 1 --seconds 20 --trace 0

Every argument is passed through to the Go harness (see main.go).  The
build and everything a run leaves behind stay under .bench_build/ in the
repository root: the Go build cache, the binary, per-run scratch disks and
the span dumps of traced runs.  The exit code is the harness's; a failed
build exits non-zero without printing a result line.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=here,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
