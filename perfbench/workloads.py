"""The four workloads: set-up, timed phase and output checks.

Each workload drives the program's public entry points on one thread:
a serial :class:`~repro.engine.jobs.MatchingEngine`, no pools, no
sockets.  ``setup()`` builds the inputs (written to the run's work
directory and streamed back, so the benchmark holds no copies of the
big wire lines) and warms the code paths; ``measure(seconds)`` runs
whole rounds of the same operations until ``seconds`` have passed and
checks every output outside the timed region.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Any, Callable

import numpy as np

import checks
import inputs
from tracing import Tracer, arena_peak_mb, stepped
from measure import Measure

from repro.engine.jobs import MatchingEngine, SolveRequest
from repro.fleet.loadgen import run_fleet_load
from repro.fleet.simfleet import CrashPlan, FleetConfig
from repro.model.instance import KPartiteInstance
from repro.replay import replayer
from repro.service import protocol
from repro.service.clock import RealClock
from repro.service.loadgen import LoadProfile
from repro.service.pipeline import ServiceConfig, SolveService

#: outcomes that count as a completed operation.
DONE = ("ok", "no_stable")


class Workload:
    """Shared bookkeeping: failure counts and the problems checks found."""

    def __init__(self, seed: int, seconds: float, work_dir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, m: Measure) -> Measure:
        self.attempted += m.attempted
        self.failed += m.failed
        return m

    def closed_loop(
        self, seconds: float, tracer: "Tracer | None", operation: Callable[[], Any], check: Callable
    ) -> Measure:
        """Repeat ``operation`` for ``seconds``; time each call, check it untimed."""
        m = Measure()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            with m.timed():
                sid = tracer.open("request") if tracer is not None else -1
                result = operation()
                if tracer is not None:
                    tracer.close(sid)
            check(result, m)
        m.wall_s = time.perf_counter() - start
        return self.record(m)

    def arena_peak_mb(self) -> float:
        return 0.0


# -- serve workloads --------------------------------------------------------


def new_service(engine: "MatchingEngine | None" = None) -> SolveService:
    """A real-clock service over a serial engine, with a queue no run fills."""
    return SolveService(
        engine if engine is not None else MatchingEngine(backend="serial"),
        config=ServiceConfig(queue_capacity=4096, workers=2, cost_model=None),
        clock=RealClock(),
    )


async def serve_one(service: SolveService, line: str) -> tuple:
    """Decode, handle and encode one wire line: the path a request takes."""
    request = protocol.parse_service_request(line)
    response = await service.handle(request)
    return response, protocol.response_line(response)


def request_path(service: SolveService, line: str, tracer: "Tracer | None") -> Any:
    coro = serve_one(service, line)
    return coro if tracer is None else stepped(tracer, "request", coro)


class ServeChecker:
    """Checks serve responses against the inputs they were built from."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = problems
        self.verdicts: dict = {}
        self.reference: dict = {}

    def check(self, key: Any, prefs: np.ndarray, spec: dict, response: Any, line: str) -> bool:
        """Check one response; returns False when the operation failed."""
        try:
            encoded = json.loads(line)
        except ValueError:
            self.problems.append(f"{spec['id']}: response line is not JSON")
            return False
        if encoded.get("id") != spec["id"] or encoded.get("outcome") != response.outcome:
            self.problems.append(f"{spec['id']}: response line does not match the response")
        if response.outcome not in DONE:
            return False
        payload = response.result.payload
        if spec.get("verify") and payload.get("status") == "ok" and response.result.stable is not True:
            self.problems.append(f"{spec['id']}: verify asked, stable={response.result.stable}")
        # a deterministic solver gives the same payload for the same input:
        # the first one is checked in full, the rest must equal it.
        ref_key = (key, spec["solver"])
        fields = (payload.get("status"), payload.get("matching"), payload.get("proposals"), payload.get("tree_edges"))
        if ref_key in self.reference:
            if self.reference[ref_key] != fields:
                self.problems.append(f"{spec['id']}: output differs from an earlier identical request")
            return True
        self.reference[ref_key] = fields
        if spec["solver"] == "binary":
            found = checks.check_binary(prefs, payload, self.verdicts, key)
        else:
            found = checks.check_kary(prefs, payload)
        self.problems.extend(f"{spec['id']}: {p}" for p in found)
        return True


class ServeCold(Workload):
    """Closed loop, one client: every request a distinct k=3, n=256 instance."""

    def setup(self) -> None:
        prefs = inputs.cold_prefs(self.seed)
        self.prefs, warm = prefs[:-1], prefs[-1]
        self.ids = [f"cold-{index}" for index in range(len(self.prefs))]
        self.path = os.path.join(self.work_dir, "serve-cold.jsonl")
        with open(self.path, "w", encoding="utf-8") as out:
            for rid, p in zip(self.ids, self.prefs):
                out.write(inputs.cold_line(rid, p) + "\n")
        self.checker = ServeChecker(self.problems)
        lines = [inputs.cold_line("cold-warm", warm)]
        asyncio.run(self._round(lines, [warm], ["cold-warm"], Measure(), None))

    def measure(self, seconds: float, tracer: "Tracer | None" = None) -> Measure:
        m = Measure()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            with open(self.path, encoding="utf-8") as lines:
                asyncio.run(self._round(lines, self.prefs, self.ids, m, tracer))
        m.wall_s = time.perf_counter() - start
        return self.record(m)

    async def _round(
        self, lines: Any, prefs: list, ids: list, m: Measure, tracer: "Tracer | None"
    ) -> None:
        """One round through a fresh service, so every request misses the cache."""
        service = new_service()
        done: list[tuple] = []
        async with service:
            for line in lines:
                with m.timed():
                    response, encoded = await request_path(service, line, tracer)
                m.queue_waits.append(response.queue_wait_s)
                done.append((response, encoded))
        for rid, p, (response, encoded) in zip(ids, prefs, done):
            spec = {"id": rid, "solver": "kary", "verify": True}
            m.attempted += 1
            if not self.checker.check(rid, p, spec, response, encoded):
                m.failed += 1
        responded = [response.request_id for response, _ in done]
        self.problems.extend(checks.check_terminal(ids, responded, service.stats()))


class ServeMixed(Workload):
    """Open loop: seeded Poisson arrivals at a fixed rate, mostly cache hits."""

    def setup(self) -> None:
        self.rounds = max(1, int(self.seconds * inputs.MIXED_RATE / inputs.MIXED_ROUND))
        self.inputs = inputs.MixedInputs(self.seed, self.rounds)
        self.path = os.path.join(self.work_dir, "serve-mixed.jsonl")
        self.inputs.write_lines(self.path)
        self.warm = self.inputs.warm_lines()
        self.checker = ServeChecker(self.problems)
        asyncio.run(self._warm_up(MatchingEngine(backend="serial")))

    async def _warm_up(self, engine: MatchingEngine) -> None:
        """Solve and verify every pooled instance, so pool requests hit."""
        async with new_service(engine) as service:
            for line in self.warm:
                await serve_one(service, line)

    def measure(self, seconds: float, tracer: "Tracer | None" = None) -> Measure:
        rounds = max(1, min(self.rounds, int(seconds * inputs.MIXED_RATE / inputs.MIXED_ROUND)))
        count = rounds * inputs.MIXED_ROUND
        m = Measure()
        results = asyncio.run(self._drive(count, m, tracer))
        specs = self.inputs.specs[:count]
        for spec, (response, encoded) in zip(specs, results):
            m.attempted += 1
            key = (spec["source"], spec["index"])
            if not self.checker.check(key, self.inputs.prefs_for(spec), spec, response, encoded):
                m.failed += 1
        return self.record(m)

    async def _drive(self, count: int, m: Measure, tracer: "Tracer | None") -> list:
        loop = asyncio.get_running_loop()
        engine = MatchingEngine(backend="serial")
        if tracer is not None:
            tracer.active = False
        await self._warm_up(engine)
        if tracer is not None:
            tracer.active = True
        service = new_service(engine)

        async def timed(line: str, due: float) -> tuple:
            response, encoded = await request_path(service, line, tracer)
            m.latencies.append(time.perf_counter() - due)
            m.queue_waits.append(response.queue_wait_s)
            return response, encoded

        tasks = []
        async with service:
            c0, start = time.process_time(), time.perf_counter()
            with open(self.path, encoding="utf-8") as lines:
                for due in self.inputs.due[:count]:
                    line = lines.readline()
                    delay = start + due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    m.lags.append(time.perf_counter() - (start + due))
                    tasks.append(loop.create_task(timed(line, start + due)))
            results = await asyncio.gather(*tasks)
            m.wall_s = time.perf_counter() - start
            m.cpu_s = time.process_time() - c0
        ids = [response.request_id for response, _ in results]
        self.problems.extend(
            checks.check_terminal((s["id"] for s in self.inputs.specs[:count]), ids, service.stats())
        )
        return results


# -- offline batches ---------------------------------------------------------


class BatchStack(Workload):
    """solve_many over same-shape kary batches that the engine stacks."""

    def setup(self) -> None:
        prefs = inputs.batch_prefs(self.seed)
        self.prefs = prefs[: inputs.BATCH_SIZE]
        self.batch = [_solve_request(p) for p in self.prefs]
        warm = [_solve_request(p) for p in prefs[inputs.BATCH_SIZE :]]
        MatchingEngine(backend="serial").solve_many(warm)
        self.reference: "list | None" = None

    def measure(self, seconds: float, tracer: "Tracer | None" = None) -> Measure:
        return self.closed_loop(seconds, tracer, self._solve, self._check)

    def _solve(self) -> list:
        """One batch through a fresh engine, so no instance is a cache hit."""
        return MatchingEngine(backend="serial").solve_many(self.batch)

    def _check(self, results: list, m: Measure) -> None:
        fields = []
        for result in results:
            m.attempted += 1
            if result.status != "ok":
                m.failed += 1
            p = result.payload
            fields.append((p.get("matching"), p.get("proposals"), p.get("tree_edges")))
        if self.reference is None:
            for index, result in enumerate(results):
                found = checks.check_kary(self.prefs[index], result.payload)
                self.problems.extend(f"batch instance {index}: {p}" for p in found)
            self.reference = fields
        elif fields != self.reference:
            self.problems.append("batch output differs from the first, checked batch")

    def arena_peak_mb(self) -> float:
        return arena_peak_mb(self._solve)


def _solve_request(prefs: np.ndarray) -> SolveRequest:
    return SolveRequest(instance=KPartiteInstance.from_arrays(prefs.astype(np.int64)), solver="kary")


# -- capture replay -------------------------------------------------------------


class ReplayFleet(Workload):
    """Re-drive a captured 4-shard virtual-clock soak with a mid-run crash."""

    def setup(self) -> None:
        self.path = os.path.join(self.work_dir, "fleet-capture.jsonl")
        profile = LoadProfile(
            requests=inputs.FLEET_REQUESTS,
            seed=self.seed,
            mode="open",
            rate=inputs.FLEET_RATE,
            pool=inputs.FLEET_POOL,
            k_choices=(inputs.FLEET_K,),
            n_choices=(inputs.FLEET_N,),
            popularity="zipfian",
            tight_fraction=0.0,
            deadline_s=30.0,
        )
        mid_run = inputs.FLEET_REQUESTS / inputs.FLEET_RATE / 2.0
        # crash the first shard that has work in flight at mid-run, so
        # the capture always holds a reroute
        for shard in range(inputs.FLEET_SHARDS):
            report = run_fleet_load(
                profile,
                config=FleetConfig(workers=inputs.FLEET_SHARDS),
                crashes=(CrashPlan(shard_index=shard, at_s=mid_run),),
                capture=self.path,
            )
            if report.counters.get("fleet.rerouted", 0) > 0:
                break
        else:
            self.problems.append("no shard crash at mid-run rerouted a request")
        self.report_json = json.dumps(report.to_dict(), sort_keys=True)
        self._check(replayer.replay_capture(self.path), Measure())

    def measure(self, seconds: float, tracer: "Tracer | None" = None) -> Measure:
        return self.closed_loop(seconds, tracer, lambda: replayer.replay_capture(self.path), self._check)

    def _check(self, result: Any, m: Measure) -> None:
        report = result.report
        m.attempted += report.requests
        m.failed += sum(count for outcome, count in report.outcomes.items() if outcome not in DONE)
        self.problems.extend(checks.check_same_report(self.report_json, report.to_dict()))
        ids = [f"req-{i:05d}" for i in range(report.requests)]
        counts = {"accepted": report.accepted, "responded": report.responded, "lost": report.lost}
        self.problems.extend(checks.check_terminal(ids, report.outcome_by_id, counts))
        if sum(report.outcomes.values()) != report.requests:
            self.problems.append(f"{sum(report.outcomes.values())} outcomes for {report.requests} requests")
        hits = sum(s.get("cache_hits", 0) for s in report.shards.values())
        lookups = hits + sum(s.get("cache_misses", 0) for s in report.shards.values())
        m.extra["shard_hit_ratio"] = hits / lookups if lookups else 0.0


WORKLOADS = {
    "serve-cold": ServeCold,
    "serve-mixed": ServeMixed,
    "batch-stack": BatchStack,
    "replay-fleet": ReplayFleet,
}
