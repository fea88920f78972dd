"""Closed- and open-loop load drivers over the public client API.

Every op is an async callable built from the workload's seeded RNG
before its clock starts. A closed-loop worker sends its next op only
after the previous one completed; the open loop sends on a precomputed
Poisson schedule and times every op from when it was *due*, so a stall
of the generator (or of the server) also charges the ops queued behind
it. How late the open loop actually sent is recorded as lag; arrivals
refused because too many ops were outstanding are shed and count as
failed.

A reply that fails its correctness check raises :class:`GateFailure`,
which ends the run; any other error is an op failure, counted per
class and never dropped.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import math
import statistics
import time

from repro.errors import ReproError

#: The op id of the op the current task is running (for trace spans).
CURRENT_OP = contextvars.ContextVar("perfbench_op", default=None)


class GateFailure(Exception):
    """A reply failed its correctness check: the run is invalid."""


class Recorder:
    """Per-class latencies, attempts and failures of one window."""

    def __init__(self):
        self.latencies = {}   # class -> [seconds]
        self.attempted = {}
        self.failed = {}
        self.errors = []      # first few op failures, for the report
        self.op_classes = {}  # op id -> class (trace attribution)
        self.lags = []        # open loop: send time minus due time
        self.shed = 0
        #: Work done beyond op counts (revoke: records re-encrypted).
        self.units = 0
        self._ids = itertools.count()

    def _count(self, table: dict, cls: str) -> None:
        table[cls] = table.get(cls, 0) + 1

    async def execute(self, cls: str, run, start: float) -> None:
        """Run one op timed from ``start`` (its due time in open loops)."""
        op_id = next(self._ids)
        self.op_classes[op_id] = cls
        CURRENT_OP.set(op_id)
        self._count(self.attempted, cls)
        try:
            await run()
        except (ReproError, OSError, asyncio.TimeoutError) as exc:
            self._count(self.failed, cls)
            if len(self.errors) < 5:
                self.errors.append(f"{cls}: {exc!r}")
            return
        finally:
            CURRENT_OP.set(None)
        self.latencies.setdefault(cls, []).append(time.perf_counter() - start)

    def refuse(self, cls: str) -> None:
        self._count(self.attempted, cls)
        self._count(self.failed, cls)
        self.shed += 1

    def completed(self, *classes) -> int:
        return sum(len(self.latencies.get(cls, ())) for cls in classes)

    def samples(self, *classes) -> list:
        return [value for cls in classes for value in self.latencies.get(cls, ())]

    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    def total_failed(self) -> int:
        return sum(self.failed.values())


def p50(samples) -> float:
    return statistics.median(samples)


def tail(samples) -> tuple:
    """``(value, percentile, n)``: p99 with at least 1000 samples, else
    the highest nearest-rank percentile leaving 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples are too few for a tail percentile")
    beyond = max(10, n - math.ceil(0.99 * n))
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


async def closed_loop(recorder: Recorder, workers, seconds: float) -> float:
    """Run ``workers`` (callables returning ``(class, op)``) until the
    window ends; returns the window's wall time."""
    start = time.perf_counter()
    deadline = start + seconds

    async def worker(next_op):
        while time.perf_counter() < deadline:
            cls, run = next_op()
            await recorder.execute(cls, run, time.perf_counter())

    await asyncio.gather(*(worker(next_op) for next_op in workers))
    return time.perf_counter() - start


def poisson_schedule(rng, rate: float, seconds: float) -> list:
    """Arrival offsets of a Poisson process over ``[0, seconds)``,
    conditioned on its expected count: ``rate * seconds`` uniform
    offsets, sorted. The count is then the same for every seed, so the
    offered load does not vary between runs."""
    return sorted(rng.uniform(0, seconds)
                  for _ in range(round(rate * seconds)))


async def open_loop(recorder: Recorder, schedule, next_op,
                    max_outstanding: int, stop=None) -> float:
    """Send ``next_op(index)`` at each scheduled offset; returns the wall
    time from the window start until the last op completed.

    ``stop`` (an :class:`asyncio.Event`) ends the schedule early, for a
    background stream that runs as long as a foreground task does.
    """
    start = time.perf_counter()
    tasks, outstanding = [], set()
    for index, offset in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            if stop is None:
                await asyncio.sleep(delay)
            else:
                try:
                    await asyncio.wait_for(stop.wait(), delay)
                except asyncio.TimeoutError:
                    pass
        if stop is not None and stop.is_set():
            break
        recorder.lags.append(time.perf_counter() - due)
        cls, run = next_op(index)
        if len(outstanding) >= max_outstanding:
            recorder.refuse(cls)
            continue
        task = asyncio.ensure_future(recorder.execute(cls, run, due))
        tasks.append(task)  # kept, so a failed gate is raised below
        outstanding.add(task)
        task.add_done_callback(outstanding.discard)
    await asyncio.gather(*tasks)
    return time.perf_counter() - start
