#!/usr/bin/env python3
"""Builds the trilist benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The benchmark package in this directory
is built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`), then run once per workload. Its report lines and
its closing JSON line go to standard output; the exit status is non-zero
when the build fails, a run fails or a check finds a wrong answer.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["batch_root", "batch_hubs", "serve_read", "serve_edit"]
# A run measures for --seconds and then checks its outputs; a hung run is
# stopped well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # cargo writes its progress to stderr; keep stdout for the report
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "--version"], env=env, capture_output=True,
                             text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "trilist-perfbench")
    rustc = rustc_version(env)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rustc", rustc]
        sys.stdout.flush()
        with subprocess.Popen(cmd, env=env) as run:
            # when this script is terminated, the run is stopped too; leaving
            # the `with` block waits for it to end
            def stop(*_):
                run.kill()
                sys.exit(1)

            signal.signal(signal.SIGTERM, stop)
            try:
                code = run.wait(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                run.kill()
                run.wait()
                print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
                return 1
        if code != 0:
            print(f"perfbench: {workload} exited with status {code}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
