#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

Usage (from the repository root):

    python3 perfbench/run.py --workload <novel|journaled|all> \
        --seed <n> --seconds <s> --trace <0|1>

The harness is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the working directory). Build output goes to
standard error; the harness's own output, ending in one JSON line, goes
to standard output. The exit code is the build's on a failed build,
else the harness's. `--workload all` runs every workload named in
BENCHMARK.json in turn and exits non-zero if any run fails its checks.
"""

import json
import os
import subprocess
import sys


def build(here, env):
    return subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    ).returncode


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    code = build(here, env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    exe = os.path.join(target, "release", "deco-perfbench")
    args = sys.argv[1:]
    if "all" not in args:
        return subprocess.run([exe] + args, env=env).returncode

    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = 0
    for name in workloads:
        run_args = [name if a == "all" else a for a in args]
        print(f"== {name}", flush=True)
        code = subprocess.run([exe] + run_args, env=env).returncode
        failed = failed or code
    return failed


if __name__ == "__main__":
    sys.exit(main())
