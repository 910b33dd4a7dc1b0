#!/usr/bin/env python3
"""Build the program and the benchmark harness, then run one benchmark run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-sql --seed 1 --seconds 20 --trace 0

Builds cmd/unmasque, cmd/unmasqued and the harness in perfbench/ with the
local Go toolchain into .bench_build/ (or $CARGO_TARGET_DIR when it names a
directory inside the checkout), keeping every Go cache there too, and runs
the harness. The harness prints the result as the last line of standard
output. Everything the run starts is stopped before this script exits.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    target = target.resolve()
    if root not in target.parents:
        target = root / ".bench_build"
    return target


def go_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": str(build / "gocache"),
        "GOPATH": str(build / "gopath"),
        "GOMODCACHE": str(build / "gopath" / "pkg" / "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "HOME": str(build / "home"),
        "XDG_CONFIG_HOME": str(build / "config"),
        "XDG_CACHE_HOME": str(build / "cache"),
        "CGO_ENABLED": "0",
    })
    return env


def run_group(cmd, cwd, env, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    for need in ("go.mod", "cmd/unmasque", "cmd/unmasqued"):
        if not (root / need).exists():
            fail(f"{need} not found: run from the root of a checkout of the repository")
    build = build_dir(root)
    bindir = build / "bin"
    for d in (bindir, build / "home", build / "config", build / "cache"):
        d.mkdir(parents=True, exist_ok=True)
    env = go_env(build)

    steps = [
        (["go", "build", "-o", str(bindir) + os.sep, "./cmd/unmasque", "./cmd/unmasqued"], root),
        (["go", "build", "-o", str(bindir / "perfbench"), "."], root / "perfbench"),
    ]
    for cmd, cwd in steps:
        try:
            rc = run_group(cmd, cwd, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if rc != 0:
            fail(f"build failed: {' '.join(cmd)}")

    work = build / "run" / f"{args.workload}-{os.getpid()}"
    cmd = [str(bindir / "perfbench"), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-bin", str(bindir), "-work", str(work)]
    sys.stdout.flush()
    try:
        rc = run_group(cmd, root, os.environ, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
