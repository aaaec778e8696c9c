#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build), then run once. Its
standard output is passed through; the last line is the JSON result.
Extra arguments after the four above (e.g. --inject-error) go to the
benchmark binary unchanged.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_capped(cmd, timeout, **kw):
    """Runs cmd, killing it (and waiting for it) if it outlives timeout."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{cmd[0]} did not finish within {timeout} s", 3)
        return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        fail("run from the root of a checkout: the repository's crates/ are missing")
    if not os.path.isfile(manifest):
        fail("perfbench/Cargo.toml is missing")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    code, _ = run_capped(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"build failed (exit {code})", 1)

    rc, rustc = run_capped(["rustc", "-V"], 60, stdout=subprocess.PIPE, text=True)
    print(
        f"host nproc={os.cpu_count()} rustc={rustc.strip() if rc == 0 else 'unknown'} "
        f"build=release target_dir={target}",
        flush=True,
    )

    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ] + extra
    code, out = run_capped(cmd, RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"benchmark exited with {code} and no result", 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
