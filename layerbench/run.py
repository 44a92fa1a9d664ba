#!/usr/bin/env python3
"""Build and run the layer-attributed benchmark of the wsn workspace.

Usage, from the root of a checkout:

    python3 layerbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: design_d4, mission_s64, query_stream_s32 (see layerbench/NOTES.md).
The script builds the benchmark package (release, offline) into
$CARGO_TARGET_DIR, or layerbench/target when that is unset, then runs it.
Build output goes to standard error; the benchmark's result JSON is the
last line of standard output. With --trace 1 the recorded spans are also
written to layerbench/out/spans-<workload>-seed<n>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design_d4", "mission_s64", "query_stream_s32")
# The runtime reads these on every sharded run; either would silently
# sabotage or skew the measured engine.
FORBIDDEN_ENV = ("WSN_SHARD_MISORDER", "WSN_SHARD_SKEW")
# The crates the benchmark builds against, relative to the checkout root.
REQUIRED = [
    os.path.join("crates", c, "Cargo.toml")
    for c in ("analyze", "bench", "core", "net", "obs", "runtime", "sim", "synth", "topoquery")
]
# A measured run ends well within this; the build is not bounded by it.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"layerbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    for var in FORBIDDEN_ENV:
        if os.environ.get(var) is not None:
            fail(f"refusing to run with {var} set")
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a checkout of the wsn workspace; missing {', '.join(missing)}")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    cmd = [
        os.path.join(target, "release", "layerbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans-out", spans]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
