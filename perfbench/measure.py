"""Raw-sample bookkeeping for one timed phase."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Measure:
    """What one timed phase produced."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.lags: list[float] = []
        self.queue_waits: list[float] = []
        self.extra: dict[str, float] = {}

    @property
    def ops(self) -> int:
        return self.attempted - self.failed

    @contextmanager
    def timed(self) -> Iterator[None]:
        """Time one closed-loop operation: its latency, busy and CPU time."""
        c0, t0 = time.process_time(), time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        self.busy_s += elapsed
        self.latencies.append(elapsed)
