#!/usr/bin/env python3
"""Build the release binaries and the benchmark, then run one workload.

usage: python3 perfbench/run.py --workload profile|ingest|query \
           --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `target`): the `numa-tools` binaries under test from the
repository workspace, and the benchmark from its own package in
`perfbench/`. The result is the last line of standard output; build
output goes to standard error.
"""

import os
import signal
import subprocess
import sys


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", "target")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "numa-tools"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        rc = subprocess.call(cmd, env=env, stdout=sys.stderr)
        if rc != 0:
            return rc
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    # Its own process group, so that nothing it starts outlives it.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
