#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the neuro federation.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is neuro-default, neuro-durable, neuro-planner, or `all` to run the
three in turn. The benchmark is built from source with dune first; its
report and, as the last line, a JSON summary go to standard output. The
build log goes to standard error. Exits 2 without a summary when the
repository's sources are not next to this directory or do not build.
"""

import os
import subprocess
import sys

WORKLOADS = ["neuro-default", "neuro-durable", "neuro-planner"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_rev():
    # only the checkout's own history: never a repository further up
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("no %s next to perfbench/: run from a full checkout" % needed)
    # no shared build cache: the build writes only under _build here
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        die("build failed: %s" % e)
    if done.returncode != 0:
        die("build failed")


def main(argv):
    if "--workload" not in argv:
        die("usage: run.py --workload NAME|all --seed N --seconds S --trace 0|1")
    i = argv.index("--workload")
    if i + 1 >= len(argv):
        die("--workload needs a value")
    build()
    rev = source_rev()
    names = WORKLOADS if argv[i + 1] == "all" else [argv[i + 1]]
    code = 0
    for name in names:
        args = argv[:i + 1] + [name] + argv[i + 2:] + ["--rev", rev]
        sys.stdout.flush()
        code = subprocess.run([EXE] + args, cwd=ROOT, timeout=900).returncode or code
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
