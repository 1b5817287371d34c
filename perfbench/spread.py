"""Rerun workloads on the same code, twice over, and compare the two sets.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload serve-cold --runs 10
    python3 perfbench/spread.py --workload all --runs 10   # every workload in BENCHMARK.json

Each set is ``run.py`` once per seed 1..runs, at ``run_seconds`` from
``BENCHMARK.json``; the second set repeats the first.  For every
end-to-end metric and each set the table gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median; then how much worse the second set's median
is than the first's, as a share of the first.  A metric is ``steady``
when both spreads are below a third of its ``BENCHMARK.json`` bound and
the second median is not worse by more than the bound, ``in bound``
when the spreads reach the bound at most, and ``OVER BOUND`` otherwise.
The bounds in ``BENCHMARK.json`` are set from these figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: on top of the run length: set-up, and run.py's own allowance for it.
TIMEOUT_ALLOWANCE_S = 200


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=seconds + TIMEOUT_ALLOWANCE_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartiles, and (q3 - q1) / median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def compare(workload: str, sets: list[list[dict]], spec: dict, walls: list[float]) -> list[str]:
    runs = len(sets[0])
    rows = [
        f"== {workload}: 2 sets of {runs} runs (seeds 1..{runs}), wall per run "
        f"median {statistics.median(walls):.1f} s, max {max(walls):.1f} s"
    ]
    shares = [sorted({r["failed"] / r["attempted"] for r in results}) for results in sets]
    attempted = [r["attempted"] for results in sets for r in results]
    rows.append(
        f"   correct: {all(r['correct'] for results in sets for r in results)}  "
        f"attempted per run: {min(attempted)}..{max(attempted)}  "
        f"failed share per set: {shares[0]} {shares[1]}"
        f"{'' if shares[0] == shares[1] else '  DIFFER'}"
    )
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians, cells, spreads = [], [], []
        for results in sets:
            median, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results])
            medians.append(median)
            cells.append(f"{median:10.4f} ({q1:.4f}..{q3:.4f}) {spread:6.1%}")
            spreads.append(spread)
        worse = (medians[1] - medians[0]) / medians[0] * (1 if metric["better"] == "lower" else -1)
        if max(spreads) < bound / 3 and worse <= bound:
            verdict = "steady"
        elif max(spreads) <= bound and worse <= bound:
            verdict = "in bound"
        else:
            verdict = "OVER BOUND"
        rows.append(
            f"   {name:15s} {metric['unit']:4s} set 1 {cells[0]} | set 2 {cells[1]} | "
            f"2nd worse by {worse:6.1%} | bound {bound:.0%} {verdict}"
        )
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2, to give quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for workload in names:
        sets, walls = [], []
        for _ in range(2):
            results = []
            for seed in range(1, args.runs + 1):
                start = time.monotonic()
                results.append(run_once(workload, seed, spec["run_seconds"]))
                walls.append(time.monotonic() - start)
            sets.append(results)
        print("\n".join(compare(workload, sets, spec, walls)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
