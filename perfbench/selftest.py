"""Show that every output check catches a planted fault.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Each case takes a correct output (solved by the program, or built by
hand), plants one fault in a copy — two partners swapped, a member
used twice, a proposal count over the bound, a wrong binary verdict, a
response dropped or doubled, a program count of accepted, responded or
lost requests off by one, a replayed outcome changed — and requires
the check to pass on the original and fail on the copy.  Exits 0 when
every case holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from repro.engine.jobs import MatchingEngine, SolveRequest  # noqa: E402
from repro.model.instance import KPartiteInstance  # noqa: E402


def naive_blocking(prefs: np.ndarray, tuples: list, g: int, h: int) -> bool:
    """Reference for the vectorized edge check: a plain double loop."""
    n = prefs.shape[1]
    partner = {}
    for tup in tuples:
        members = {int(gg): int(i) for gg, i in tup}
        partner[(g, members[g])] = members[h]
        partner[(h, members[h])] = members[g]
    rank = lambda a, b, x, y: list(prefs[a, x, b]).index(y)  # noqa: E731
    for i in range(n):
        for j in range(n):
            if (
                rank(g, h, i, j) < rank(g, h, i, partner[(g, i)])
                and rank(h, g, j, i) < rank(h, g, j, partner[(h, j)])
            ):
                return True
    return False


def solved(prefs: np.ndarray, solver: str) -> dict:
    instance = KPartiteInstance.from_arrays(prefs.astype(np.int64))
    result = MatchingEngine(backend="serial").submit(SolveRequest(instance=instance, solver=solver))
    return json.loads(json.dumps(dict(result.payload)))


def kary_cases(report: list) -> None:
    rng = np.random.default_rng(7)
    for solver, (k, n) in (("kary", (3, 12)), ("priority", (4, 8))):
        prefs = inputs.random_prefs(k, n, rng)
        payload = solved(prefs, solver)
        report.append((f"{solver}: correct output passes", not checks.check_kary(prefs, payload)))

        caught = agree = tried = 0
        g_swap = int(payload["tree_edges"][0][1])
        for a, b in itertools.combinations(range(n), 2):
            bad = copy.deepcopy(payload)
            tuples = bad["matching"]["tuples"]
            ta, tb = tuples[a], tuples[b]
            ia = next(x for x, m in enumerate(ta) if m[0] == g_swap)
            ib = next(x for x, m in enumerate(tb) if m[0] == g_swap)
            ta[ia], tb[ib] = tb[ib], ta[ia]
            expected = any(naive_blocking(prefs, tuples, g, h) for g, h in bad["tree_edges"])
            flagged = any("blocking" in p for p in checks.check_kary(prefs, bad))
            tried += 1
            agree += flagged == expected
            caught += flagged
            if tried == 40:
                break
        report.append((f"{solver}: swapped partners flagged exactly when a blocking pair exists "
                       f"({caught} of {tried} swaps block)", agree == tried and caught > 0))

        bad = copy.deepcopy(payload)
        bad["matching"]["tuples"][1][0] = list(bad["matching"]["tuples"][0][0])
        report.append((f"{solver}: member matched twice", bool(checks.check_kary(prefs, bad))))
        bad = copy.deepcopy(payload)
        bad["proposals"] = (k - 1) * n * n + 1
        report.append((f"{solver}: proposals over (k-1)n^2", bool(checks.check_kary(prefs, bad))))


def binary_cases(report: list) -> None:
    rng = np.random.default_rng(11)
    ok = no_stable = None
    while ok is None or no_stable is None:
        prefs = inputs.random_prefs(3, 2, rng)
        payload = solved(prefs, "binary")
        if payload["status"] == "ok" and ok is None:
            ok = (prefs, payload)
        elif payload["status"] == "no_stable" and no_stable is None:
            no_stable = (prefs, payload)
    prefs, payload = ok
    report.append(("binary ok passes", not checks.check_binary(prefs, payload, {}, "a")))
    flipped = {"status": "no_stable"}
    report.append(("binary ok flipped to no_stable", bool(checks.check_binary(prefs, flipped, {}, "b"))))
    pairs = payload["matching"]["pairs"]
    blocked = 0
    for a, b in itertools.combinations(range(len(pairs)), 2):
        bad = copy.deepcopy(payload)
        p, q = bad["matching"]["pairs"][a], bad["matching"]["pairs"][b]
        p[1], q[1] = q[1], p[1]
        if p[0][0] == p[1][0] or q[0][0] == q[1][0]:
            continue
        blocked += bool(checks.check_binary(prefs, bad, {}, "c"))
    report.append((f"binary swapped partners flagged ({blocked} swaps)", blocked > 0))
    prefs, payload = no_stable
    report.append(("binary no_stable agrees with enumeration", not checks.check_binary(prefs, payload, {}, "d")))


def terminal_and_replay_cases(report: list) -> None:
    ids = [f"r{i}" for i in range(5)]
    counts = {"accepted": 5, "responded": 5, "lost": 0}
    report.append(("all responses present passes", not checks.check_terminal(ids, ids, counts)))
    report.append(("one response dropped", bool(checks.check_terminal(ids, ids[:-1], counts))))
    report.append(("one response doubled", bool(checks.check_terminal(ids, ids + ids[:1], counts))))
    for name, value in (("lost", 1), ("responded", 4), ("responded", 6), ("accepted", 4)):
        report.append((f"program counts {name}={value}",
                       bool(checks.check_terminal(ids, ids, {**counts, name: value}))))
    captured = {"outcome_by_id": {"r0": "ok", "r1": "no_stable"}, "lost": 0}
    expected = json.dumps(captured, sort_keys=True)
    report.append(("identical replay passes", not checks.check_same_report(expected, copy.deepcopy(captured))))
    changed = copy.deepcopy(captured)
    changed["outcome_by_id"]["r1"] = "ok"
    report.append(("replayed outcome changed", bool(checks.check_same_report(expected, changed))))


def main() -> int:
    report: list = []
    kary_cases(report)
    binary_cases(report)
    terminal_and_replay_cases(report)
    for name, held in report:
        print(f"{'ok  ' if held else 'FAIL'} {name}")
    return 0 if all(held for _, held in report) else 1


if __name__ == "__main__":
    sys.exit(main())
