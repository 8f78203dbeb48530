#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lenet-infer --seed 1 --seconds 20 --trace 0

The Go build cache, module cache and binary all live in .bench_build/ at the
repository root, so the benchmark reads and writes nothing outside the
checkout.  Arguments are passed to the program unchanged; its last line of
output is the JSON result.  A failed build exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", CGO_ENABLED="0",
               GOPROXY="off", GOENV="off")
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE,
                               env=go_env(), timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
