#!/usr/bin/env python3
"""Build and run the scheduling-stack benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload ims-stream --seed 1 --seconds 50 --trace 0

The Go program in this directory is built from source into .bench_build/
(its own module, which takes the repository's packages through a
`replace repro => ../` directive). Every Go cache and config directory
points into .bench_build/ as well, so the run reads and writes nothing
outside the checkout. The program's output, whose last line is the JSON
result, is passed through unchanged, as is its exit status.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
