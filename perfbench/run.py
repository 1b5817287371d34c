"""Run one benchmark workload once and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 40 --trace 0

The workload runs in a child process of its own with a fixed
``PYTHONHASHSEED``, single-threaded BLAS and ``PYTHONPATH=src``, so the
program is imported from this checkout's sources and nowhere else.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: on top of ``--seconds``, the child gets this long for its imports and
#: set-up before it is killed (the run then fails).
SETUP_ALLOWANCE_S = 140


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program sources at {src}/repro; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=src,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawned", repr(time.monotonic()),
    ]
    timeout = args.seconds + SETUP_ALLOWANCE_S
    try:
        return subprocess.run(command, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} did not finish in {timeout:g} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
