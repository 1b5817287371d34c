"""Independent output checks: plain rank arrays, no ``repro`` imports.

Each check returns a list of problem strings (empty = passed), so a
run can report every fault it saw instead of stopping at the first.

* :func:`check_kary` — a ``kary`` / ``priority`` result is a perfect
  k-ary matching, has no blocking pair on any edge of its binding tree
  (Theorem 2's certificate) and used at most (k-1)·n² proposals
  (Theorem 3).
* :func:`check_binary` — a binary ``ok`` result is a perfect binary
  matching with no blocking pair under the round-robin global order,
  and a ``no_stable`` verdict survives an exhaustive search.
* :func:`check_terminal` — every request got exactly one terminal
  response and nothing was lost.
* :func:`check_same_report` — a replayed ``LoadReport`` equals the
  captured soak's report (capture followed by replay is the identity).
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

import numpy as np


def ranks_of(prefs: np.ndarray) -> np.ndarray:
    """``ranks[g, i, h, j]`` = position of ``j`` in ``prefs[g, i, h]``."""
    k, n = prefs.shape[0], prefs.shape[1]
    ranks = np.full(prefs.shape, -1, dtype=np.int32)
    rows = np.arange(n)
    for g in range(k):
        for h in range(k):
            if h != g:
                ranks[g, rows[:, None], h, prefs[g, :, h]] = rows[None, :]
    return ranks


def _tuple_table(k: int, n: int, tuples: list) -> "tuple[np.ndarray | None, list[str]]":
    """``table[t, g]`` = index of tuple ``t``'s gender-``g`` member."""
    if len(tuples) != n:
        return None, [f"matching has {len(tuples)} tuples, expected n={n}"]
    table = np.full((n, k), -1, dtype=np.int64)
    for t, tup in enumerate(tuples):
        genders = sorted(int(g) for g, _ in tup)
        if genders != list(range(k)):
            return None, [f"tuple {t} covers genders {genders}, expected 0..{k - 1}"]
        for g, i in tup:
            table[t, int(g)] = int(i)
    for g in range(k):
        if sorted(table[:, g].tolist()) != list(range(n)):
            return None, [f"gender {g} members are not each matched exactly once"]
    return table, []


def _tree_problems(k: int, edges: list) -> list[str]:
    if len(edges) != k - 1:
        return [f"binding tree has {len(edges)} edges, expected {k - 1}"]
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for g, h in edges:
        if not (0 <= g < k and 0 <= h < k) or find(g) == find(h):
            return [f"binding tree edges {edges} do not form a spanning tree"]
        parent[find(g)] = find(h)
    return []


def blocking_on_edge(ranks: np.ndarray, table: np.ndarray, g: int, h: int) -> int:
    """Number of blocking (g, h) pairs of the matching restricted to one edge."""
    n = table.shape[0]
    partner_of_g = np.empty(n, dtype=np.int64)
    partner_of_g[table[:, g]] = table[:, h]
    partner_of_h = np.empty(n, dtype=np.int64)
    partner_of_h[table[:, h]] = table[:, g]
    r_g = ranks[g, :, h, :]  # (n_g, n_h)
    r_h = ranks[h, :, g, :]  # (n_h, n_g)
    rows = np.arange(n)
    g_prefers = r_g < r_g[rows, partner_of_g][:, None]
    h_prefers = (r_h < r_h[rows, partner_of_h][:, None]).T
    return int(np.count_nonzero(g_prefers & h_prefers))


def check_kary(
    prefs: np.ndarray, payload: Mapping, *, ranks: "np.ndarray | None" = None
) -> list[str]:
    """Check one ``kary`` / ``priority`` payload against its instance."""
    k, n = prefs.shape[0], prefs.shape[1]
    matching = payload.get("matching") or {}
    table, problems = _tuple_table(k, n, list(matching.get("tuples", [])))
    if table is None:
        return problems
    edges = [tuple(int(x) for x in e) for e in payload.get("tree_edges", [])]
    problems = _tree_problems(k, edges)
    if problems:
        return problems
    if ranks is None:
        ranks = ranks_of(prefs)
    for g, h in edges:
        blocking = blocking_on_edge(ranks, table, g, h)
        if blocking:
            problems.append(f"{blocking} blocking pair(s) on tree edge ({g}, {h})")
    proposals = int(payload.get("proposals", -1))
    if not 0 <= proposals <= (k - 1) * n * n:
        problems.append(f"{proposals} proposals outside [0, (k-1)n^2 = {(k - 1) * n * n}]")
    return problems


def global_positions(prefs: np.ndarray) -> dict:
    """Round-robin global order: every r-th choice precedes every (r+1)-th.

    Within one rank the other genders come in ascending order.  Returns
    ``pos[(g, i)][(h, j)]`` = position in member (g, i)'s global list.
    """
    k, n = prefs.shape[0], prefs.shape[1]
    pos: dict = {}
    for g in range(k):
        others = [h for h in range(k) if h != g]
        for i in range(n):
            order = [(h, int(prefs[g, i, h, r])) for r in range(n) for h in others]
            pos[(g, i)] = {m: p for p, m in enumerate(order)}
    return pos


def _binary_blocking(pos: dict, partner: dict) -> "tuple | None":
    members = sorted(partner)
    for a_index, x in enumerate(members):
        for y in members[a_index + 1 :]:
            if x[0] == y[0] or partner[x] == y:
                continue
            if pos[x][y] < pos[x][partner[x]] and pos[y][x] < pos[y][partner[y]]:
                return (x, y)
    return None


def stable_binary_exists(prefs: np.ndarray) -> bool:
    """Exhaustive search for a stable perfect binary matching (tiny k·n only)."""
    k, n = prefs.shape[0], prefs.shape[1]
    pos = global_positions(prefs)
    members = [(g, i) for g in range(k) for i in range(n)]
    partner: dict = {}

    def consistent(x: tuple, y: tuple) -> bool:
        # a fully matched pair (a, b) blocks iff both prefer each other
        for a in (x, y):
            for b in partner:
                if b[0] == a[0] or partner[a] == b:
                    continue
                if pos[a][b] < pos[a][partner[a]] and pos[b][a] < pos[b][partner[b]]:
                    return False
        return True

    def search() -> bool:
        free = next((m for m in members if m not in partner), None)
        if free is None:
            return True
        for other in members:
            if other in partner or other[0] == free[0]:
                continue
            partner[free], partner[other] = other, free
            if consistent(free, other) and search():
                return True
            del partner[free], partner[other]
        return False

    return search()


def check_binary(prefs: np.ndarray, payload: Mapping, verdicts: dict, key: object) -> list[str]:
    """Check one binary payload; ``verdicts`` memoizes the exhaustive search."""
    k, n = prefs.shape[0], prefs.shape[1]
    status = payload.get("status")
    if status == "no_stable":
        if key not in verdicts:
            verdicts[key] = stable_binary_exists(prefs)
        if verdicts[key]:
            return ["binary no_stable verdict, but a stable binary matching exists"]
        return []
    if status != "ok":
        return [f"binary status {status!r}"]
    partner: dict = {}
    for a, b in (payload.get("matching") or {}).get("pairs", []):
        x, y = (int(a[0]), int(a[1])), (int(b[0]), int(b[1]))
        if x[0] == y[0] or x in partner or y in partner:
            return [f"binary pair {x}-{y} is within one gender or reuses a member"]
        partner[x], partner[y] = y, x
    if len(partner) != k * n:
        return [f"binary matching covers {len(partner)} of {k * n} members"]
    blocking = _binary_blocking(global_positions(prefs), partner)
    if blocking is not None:
        return [f"binary matching has blocking pair {blocking}"]
    return []


def check_terminal(
    expected_ids: Iterable[str], response_ids: Iterable[str], counts: Mapping[str, int]
) -> list[str]:
    """Every request answered exactly once, none lost.

    ``response_ids`` are the ids of the responses the benchmark got back;
    ``counts`` are the program's own ``accepted`` / ``responded`` /
    ``lost`` counts.  Both must agree with the requests sent, so a
    response the program dropped or doubled inside shows up even where
    the benchmark's own list cannot repeat or miss an id.  (A request
    rejected before admission is not ``accepted``, so it fails this
    check too; no workload sends one.)
    """
    problems = []
    seen: dict = {}
    for rid in response_ids:
        seen[rid] = seen.get(rid, 0) + 1
    expected = list(expected_ids)
    missing = [rid for rid in expected if seen.get(rid, 0) == 0]
    repeated = [rid for rid, c in seen.items() if c > 1]
    extra = set(seen) - set(expected)
    if missing:
        problems.append(f"{len(missing)} request(s) without a response, e.g. {missing[0]}")
    if repeated:
        problems.append(f"{len(repeated)} request(s) answered twice, e.g. {repeated[0]}")
    if extra:
        problems.append(f"{len(extra)} response(s) for unknown ids")
    for name in ("accepted", "responded"):
        if counts.get(name) != len(expected):
            problems.append(f"program counts {name}={counts.get(name)} for {len(expected)} requests")
    if counts.get("lost") != 0:
        problems.append(f"program reports lost={counts.get('lost')}")
    return problems


def check_same_report(expected_json: str, report: Mapping) -> list[str]:
    """The replayed report, as canonical JSON, equals the captured one."""
    if json.dumps(report, sort_keys=True) != expected_json:
        return ["replayed LoadReport differs from the captured soak's report"]
    return []
