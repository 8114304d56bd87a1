#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload in its own process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the benchmark's JSON result. Build
output goes to standard error. The exit code is the benchmark's; it is
non-zero, with no result line, when the build fails, an output check fails
or the run exceeds its time limit.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Fixed parallelism: two sampler/components pool threads on any host.
POOL_THREADS = "2"
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    """Builds the release binary and returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, SMALLWORLD_THREADS=POOL_THREADS)
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # the store files a killed run leaves behind
        shutil.rmtree(".bench_work", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
