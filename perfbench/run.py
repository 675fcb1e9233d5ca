#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-read --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the durable workload's store all live
under .bench_build/ in the current directory, so nothing is written outside
it. The arguments are passed to the benchmark unchanged; its last line of
output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--scratch", os.path.join(build, "scratch")] + sys.argv[1:]
    os.execve(binary, args, env)  # the benchmark replaces this process


if __name__ == "__main__":
    sys.exit(main())
