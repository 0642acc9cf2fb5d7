#!/usr/bin/env python3
"""Build the benchmark crate, then run it with this script's arguments.

    python3 perfbench/run.py --workload figures|simulate|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The crate builds against the repository's
own crates (by path) into $CARGO_TARGET_DIR, or perfbench/target when
that is unset. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
