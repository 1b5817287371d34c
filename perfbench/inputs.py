"""Seeded inputs for the benchmark workloads, built without ``repro``.

Every preference array is a ``(k, n, k, n)`` int array: ``prefs[g, i, h]``
is member ``i`` of gender ``g``'s ranking of gender ``h``, best first
(the uniform random ensemble: each row an independent uniform
permutation).  Diagonal rows ``prefs[g, :, g]`` are ``-1``.  The same
arrays feed the wire lines the program sees and the independent checks
in :mod:`checks`, so a check never trusts the program's own decoding.
"""

from __future__ import annotations

import json

import numpy as np

#: serve-cold: distinct k=3, n=256 instances per round (fresh service per round).
COLD_K, COLD_N, COLD_ROUND = 3, 256, 6

#: serve-mixed: open-loop arrival rate, requests per round and per-round quotas.
#: ``hit`` requests draw from pools the set-up has already solved and
#: verified; ``fresh`` and ``cold`` requests carry instances never seen
#: and always ask to verify.  The fresh solves (20% of the stream) are
#: where the 90th percentile falls; they all have one shape, so their
#: latencies form one dense cluster and the 90th percentile lands inside
#: it instead of in a gap between shapes of very different cost.
#: One cold solve per 75 requests keeps the requests queued behind it
#: (about 2 per cold solve at 25/s) well under 10% of the stream, so the
#: 90th percentile does not swing with how long the cold solves take.
MIXED_RATE = 25.0
MIXED_ROUND = 75
MIXED_QUOTA = {
    ("hit", "kary"): 35,
    ("hit", "priority"): 16,
    ("hit", "binary"): 8,
    ("fresh", "kary"): 7,
    ("fresh", "priority"): 6,
    ("fresh", "binary"): 2,
    ("cold", "kary"): 1,
}
MIXED_SHAPES = [(k, n) for k in (3, 4) for n in (8, 16, 24, 32)]
MIXED_FRESH_SHAPE = (3, 32)
MIXED_BINARY_SHAPES = [(3, 2), (4, 2), (3, 4), (4, 3)]
MIXED_POOL, MIXED_BINARY_POOL = 32, 12
MIXED_COLD_N = 128
MIXED_ZIPF_S = 1.1
MIXED_DEADLINE_S = 60.0
PRIORITIES = ("interactive", "normal", "batch")
CLIENTS = ("alpha", "beta", "gamma")

#: batch-stack: one solve_many batch of same-shape kary instances per round.
BATCH_K, BATCH_N, BATCH_SIZE = 3, 32, 64

#: replay-fleet: the captured soak's profile.  One instance shape keeps
#: the replay's cost from depending on which shapes a seed happens to draw.
FLEET_REQUESTS, FLEET_RATE, FLEET_SHARDS = 160, 400.0, 4
FLEET_POOL, FLEET_K, FLEET_N = 24, 3, 8


def random_prefs(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random ``(k, n, k, n)`` preference array."""
    prefs = np.argsort(rng.random((k, n, k, n)), axis=-1).astype(np.int16)
    for g in range(k):
        prefs[g, :, g] = -1
    return prefs


def instance_json(prefs: np.ndarray) -> str:
    """The wire-protocol instance document (``prefs[g][i][h]``, null diagonal)."""
    k, n = prefs.shape[0], prefs.shape[1]
    rows = prefs.tolist()
    doc = {
        "k": k,
        "n": n,
        "prefs": [
            [[None if h == g else rows[g][i][h] for h in range(k)] for i in range(n)]
            for g in range(k)
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def request_line(request_id: str, fields: dict, instance_text: str) -> str:
    """One wire request line around an already-encoded instance document."""
    head = json.dumps({"id": request_id, **fields}, separators=(",", ":"))
    return head[:-1] + ',"instance":' + instance_text + "}"


def cycled(shapes: list, count: int) -> list:
    """``count`` shapes, going round ``shapes`` in order."""
    return [shapes[i % len(shapes)] for i in range(count)]


def zipf_weights(count: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** s
    return weights / weights.sum()


def cold_prefs(seed: int) -> list[np.ndarray]:
    """The serve-cold round's instances, plus one warm-up instance last."""
    rng = np.random.default_rng([seed, 1])
    return [random_prefs(COLD_K, COLD_N, rng) for _ in range(COLD_ROUND + 1)]


def cold_line(request_id: str, prefs: np.ndarray) -> str:
    fields = {"solver": "kary", "verify": True, "priority": "normal"}
    return request_line(request_id, fields, instance_json(prefs))


class MixedInputs:
    """The serve-mixed request stream: pools, per-request specs, arrivals.

    Every round of :data:`MIXED_ROUND` requests has the same make-up
    (:data:`MIXED_QUOTA`; exactly half ask to verify; priorities and
    clients cycle) in a seeded order, so each kind of request has the
    same share in every run.  ``hit`` requests pick from their pool
    with Zipf popularity; ``fresh`` requests carry a new small instance
    (of :data:`MIXED_FRESH_SHAPE`, or shapes cycling through
    :data:`MIXED_BINARY_SHAPES` for binary) and ``cold`` ones a new
    k=3, n=128 instance.  Arrival times are a Poisson process conditioned on
    :data:`MIXED_ROUND` arrivals per round window.
    """

    def __init__(self, seed: int, rounds: int) -> None:
        rng = np.random.default_rng([seed, 2])
        quota = MIXED_QUOTA
        fresh_small = rounds * (quota[("fresh", "kary")] + quota[("fresh", "priority")])
        fresh_binary = rounds * quota[("fresh", "binary")]
        self.prefs = {
            "pool": [random_prefs(k, n, rng) for k, n in cycled(MIXED_SHAPES, MIXED_POOL)],
            "binary": [random_prefs(k, n, rng) for k, n in cycled(MIXED_BINARY_SHAPES, MIXED_BINARY_POOL)],
            "fresh": [random_prefs(*MIXED_FRESH_SHAPE, rng) for _ in range(fresh_small)],
            "fresh-binary": [random_prefs(k, n, rng) for k, n in cycled(MIXED_BINARY_SHAPES, fresh_binary)],
            "cold": [random_prefs(3, MIXED_COLD_N, rng) for _ in range(rounds * quota[("cold", "kary")])],
        }
        weights = {
            "pool": zipf_weights(MIXED_POOL, MIXED_ZIPF_S),
            "binary": zipf_weights(MIXED_BINARY_POOL, MIXED_ZIPF_S),
        }
        kinds = [kind for kind, count in MIXED_QUOTA.items() for _ in range(count)]
        window = MIXED_ROUND / MIXED_RATE
        taken = {"fresh": 0, "fresh-binary": 0, "cold": 0}
        self.specs: list[dict] = []
        self.due: list[float] = []
        hits = sum(count for (kind, _), count in MIXED_QUOTA.items() if kind == "hit")
        hits_verified = MIXED_ROUND // 2 - (MIXED_ROUND - hits)
        for r in range(rounds):
            order = [kinds[pick] for pick in rng.permutation(len(kinds))]
            hit_verify = iter(rng.permutation(hits) < hits_verified)
            self.due.extend(r * window + np.sort(rng.random(MIXED_ROUND)) * window)
            for kind, solver in order:
                verify = bool(next(hit_verify)) if kind == "hit" else True
                if kind == "hit":
                    source = "binary" if solver == "binary" else "pool"
                    index = int(rng.choice(len(weights[source]), p=weights[source]))
                else:
                    source = "fresh-binary" if (kind, solver) == ("fresh", "binary") else kind
                    index = taken[source]
                    taken[source] += 1
                number = len(self.specs)
                self.specs.append(
                    {
                        "id": f"mix-{number:05d}",
                        "source": source,
                        "index": index,
                        "solver": solver,
                        "verify": verify,
                        "priority": PRIORITIES[number % len(PRIORITIES)],
                        "client": CLIENTS[number % len(CLIENTS)],
                    }
                )

    def prefs_for(self, spec: dict) -> np.ndarray:
        return self.prefs[spec["source"]][spec["index"]]

    def write_lines(self, path: str) -> None:
        """Write the stream (one wire line per request) to ``path``."""
        pooled = {source: [instance_json(p) for p in self.prefs[source]] for source in ("pool", "binary")}
        with open(path, "w", encoding="utf-8") as out:
            for spec in self.specs:
                if spec["source"] in pooled:
                    text = pooled[spec["source"]][spec["index"]]
                else:
                    text = instance_json(self.prefs_for(spec))
                out.write(request_line(spec["id"], _wire_fields(spec), text) + "\n")

    def warm_lines(self) -> list[str]:
        """Solve-and-verify requests for every pooled instance and solver."""
        lines = []
        for source, solvers in (("pool", ("kary", "priority")), ("binary", ("binary",))):
            for index, prefs in enumerate(self.prefs[source]):
                text = instance_json(prefs)
                for solver in solvers:
                    spec = {"solver": solver, "verify": True, "priority": "normal", "client": "warm"}
                    lines.append(request_line(f"warm-{source}-{index}-{solver}", _wire_fields(spec), text))
        return lines


def _wire_fields(spec: dict) -> dict:
    return {
        "solver": spec["solver"],
        "verify": spec["verify"],
        "priority": spec["priority"],
        "client": spec["client"],
        "deadline_s": MIXED_DEADLINE_S,
    }


def batch_prefs(seed: int) -> list[np.ndarray]:
    """The batch-stack batch (same shape), plus a warm-up batch after it."""
    rng = np.random.default_rng([seed, 3])
    return [random_prefs(BATCH_K, BATCH_N, rng) for _ in range(2 * BATCH_SIZE)]
