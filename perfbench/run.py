#!/usr/bin/env python3
"""Builds SPIRE and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Both builds go to $CARGO_TARGET_DIR (default `.bench_build` at the
repository root). The benchmark's scratch files and traces live under
`.bench_work/`. Build output goes to stderr; the last stdout line is the
benchmark's JSON result. A run that outlives its time limit is stopped
together with every process it started.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for extra in (["-p", "spire-cli"], ["--manifest-path", "perfbench/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def time_limit(argv):
    """Seconds a run may take: its window plus generous set-up and checks."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 30.0
    return 60 + 3.5 * seconds


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--spire",
        os.path.join(release, "spire"),
        "--work",
        os.path.join(ROOT, ".bench_work"),
    ]
    # A session of its own, so the daemon and pipeline steps the run
    # starts can be stopped with it.
    run = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def kill_group():
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def stop(*_):
        kill_group()
        run.wait()
        sys.exit("perfbench: run stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = run.wait(timeout=time_limit(sys.argv))
    except subprocess.TimeoutExpired:
        stop()
    kill_group()
    sys.exit(code)


if __name__ == "__main__":
    main()
