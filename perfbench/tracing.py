"""Span tracing around the program's public functions, from outside it.

:func:`install` replaces each function in :data:`TARGETS` at the name its
caller looks it up by (``repro.engine.jobs.instance_from_json`` is the
engine's reference to the serializer, for example) with a wrapper that
records a span: layer name, start, end and parent.  Everything runs on
one thread, and a coroutine is timed one step at a time (each
``send`` into it is its own span), so the open spans always form one
stack and a span's self time is its duration minus its children's.
Spans stay in memory and are written out when the run ends.

A target that a later change deletes or renames is skipped and reads
as zero calls; :attr:`Tracer.missing` lists it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
import types
from typing import Any, Callable

#: (module, attribute path, layer): functions timed as one layer each.
TARGETS: list[tuple[str, str, str]] = [
    ("repro.service.protocol", "parse_service_request", "protocol.decode"),
    ("repro.service.protocol", "response_line", "protocol.encode"),
    ("repro.service.pipeline", "SolveService.handle", "pipeline"),
    ("repro.service.pipeline", "SolveService._process", "pipeline"),
    ("repro.engine.jobs", "MatchingEngine.solve_many", "engine"),
    ("repro.engine.jobs", "instance_digest", "fingerprint"),
    ("repro.engine.jobs", "solve_fingerprint", "fingerprint"),
    ("repro.engine.fingerprint", "canonical_json", "fingerprint"),
    ("repro.engine.cache", "ResultCache.get_with_tier", "cache"),
    ("repro.engine.cache", "ResultCache.put", "cache"),
    ("repro.engine.cache", "ResultCache.get_verdict_with_tier", "cache"),
    ("repro.engine.cache", "ResultCache.put_verdict", "cache"),
    ("repro.engine.jobs", "instance_to_json", "serialize"),
    ("repro.engine.jobs", "instance_from_json", "serialize"),
    ("repro.engine.arena", "instance_from_json", "serialize"),
    ("repro.engine.jobs", "iterative_binding", "binding"),
    ("repro.engine.jobs", "priority_binding", "binding"),
    ("repro.engine.jobs", "solve_stacked_serial", "arena"),
    ("repro.engine.jobs", "matching_quality", "quality"),
    ("repro.engine.arena", "matching_quality", "quality"),
    ("repro.engine.jobs", "find_blocking_family", "verify"),
    ("repro.kpartite.existence", "is_stable_binary", "verify"),
    ("repro.kpartite.existence", "solve_binary", "binary"),
    ("repro.replay.replayer", "parse_service_request", "replay.decode"),
    ("repro.replay.replayer", "replay_capture", "replay.loop"),
    ("repro.fleet.simfleet", "SimulatedFleet.route_key", "fleet.route"),
    ("repro.fleet.ring", "HashRing.route", "fleet.route"),
]

class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [layer, parent, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()
        self.active = True  # False: wrappers call straight through (untimed work)
        self._undo: list[tuple[Any, str, Any]] = []

    def open(self, layer: str) -> int:
        sid = len(self.spans)
        self.spans.append([layer, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping -----------------------------------------------------

    def wrap_sync(self, layer: str, fn: Callable, observe: "Callable | None") -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if observe is not None:
                try:
                    observe(tracer, args, result)
                except (TypeError, ValueError, AttributeError, IndexError):
                    tracer.missing.add(f"counter of {fn.__qualname__} (result changed shape)")
            return result

        return traced

    def wrap_async(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return await fn(*args, **kwargs)
            return await stepped(tracer, layer, fn(*args, **kwargs))

        return traced

    def install(self) -> None:
        """Wrap every reachable target; record the unreachable ones."""
        for module_name, path, layer in TARGETS:
            try:
                owner: Any = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{module_name}.{path}")
                continue
            if inspect.iscoroutinefunction(original):
                wrapped = self.wrap_async(layer, original)
            else:
                wrapped = self.wrap_sync(layer, original, OBSERVERS.get(f"{module_name}.{path}"))
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per layer: duration minus the children's."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (layer, _parent, start, end) in enumerate(self.spans):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[sid]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (layer, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps([sid, parent, layer, start, end]) + "\n")


@types.coroutine
def stepped(tracer: Tracer, layer: str, coro: Any) -> Any:
    """Drive ``coro``, recording one span per step it runs.

    Time the coroutine spends suspended (queued, or waiting for another
    task) belongs to no span of its own: it is the other task's time.
    """
    value: Any = None
    error: "BaseException | None" = None
    while True:
        sid = tracer.open(layer)
        try:
            yielded = coro.send(value) if error is None else coro.throw(error)
        except StopIteration as stop:
            tracer.close(sid)
            return stop.value
        except BaseException:
            tracer.close(sid)
            raise
        tracer.close(sid)
        try:
            value, error = (yield yielded), None
        except BaseException as exc:  # noqa: BLE001 - handed on to the coroutine
            value, error = None, exc


# -- counters measured at the traced calls -------------------------------


def _text_kb(name: str, which: str) -> Callable:
    def observe(tracer: Tracer, args: tuple, result: Any) -> None:
        text = result if which == "result" else args[0]
        tracer.count(name, len(text) / 1024.0)

    return observe


def _tier(prefix: str) -> Callable:
    def observe(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.count(f"{prefix}.lookups")
        if result[1] != "miss":
            tracer.count(f"{prefix}.hits")

    return observe


def _proposals(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("binding.solves")
    tracer.count("binding.proposals", int(result.total_proposals))


def _arena(tracer: Tracer, args: tuple, result: Any) -> None:
    leftover, failed = result
    stacked = len(args[0]) - len(leftover) - len(failed)
    if stacked:
        tracer.count("arena.calls")
        tracer.count("arena.instances", stacked)


OBSERVERS: dict[str, Callable] = {
    "repro.service.protocol.parse_service_request": _text_kb("protocol.decode_kb", "arg"),
    "repro.engine.fingerprint.canonical_json": _text_kb("fingerprint.kb_hashed", "result"),
    "repro.engine.jobs.instance_to_json": _text_kb("serialize.kb", "result"),
    "repro.engine.jobs.instance_from_json": _text_kb("serialize.kb", "arg"),
    "repro.engine.arena.instance_from_json": _text_kb("serialize.kb", "arg"),
    "repro.engine.cache.ResultCache.get_with_tier": _tier("cache"),
    "repro.engine.cache.ResultCache.get_verdict_with_tier": _tier("verdict"),
    "repro.engine.jobs.iterative_binding": _proposals,
    "repro.engine.jobs.priority_binding": _proposals,
    "repro.engine.jobs.solve_stacked_serial": _arena,
}


def arena_peak_mb(run: Callable[[], Any]) -> float:
    """Peak tracemalloc allocation inside the arena layer while ``run`` runs, in MB.

    Only the engine's calls into the stacked solve are traced, so the
    figure is the arena's own working set (the ``(count, n, n)`` stacks
    and the kernel's state), not the caller's inputs.
    """
    try:
        jobs = importlib.import_module("repro.engine.jobs")
        original = jobs.solve_stacked_serial
    except (ImportError, AttributeError):
        return 0.0
    peak = 0

    @functools.wraps(original)
    def measured(*args: Any, **kwargs: Any) -> Any:
        nonlocal peak
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    jobs.solve_stacked_serial = measured
    try:
        run()
    finally:
        jobs.solve_stacked_serial = original
    return peak / (1024.0 * 1024.0)
