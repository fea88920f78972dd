"""Host-speed probe: rescales times to a reference host speed.

The benchmark host is a shared 2-vCPU VM whose speed drifts by up to
about 30% over seconds to minutes, whose two vCPUs run at different
speeds at the same moment (10-25% apart, pinned probes show), and whose
vCPUs are at times descheduled by the hypervisor (steal time). Left
raw, all three are most of the run-to-run spread of every time metric.

Two corrections, both measured throughout the measured span:

* speed: a fixed pure-Python big-integer loop (no repro code) timed in
  thread CPU time on every vCPU in turn (the probing thread is pinned
  to each), so a slower core counts and preemption does not. CPU times
  are rescaled by ``REFERENCE_MS / mean probe``: the value they would
  have on a host where the probe takes ``REFERENCE_MS``. The mean over
  both vCPUs tracked the server's and the generator's CPU times better
  than the probe of the vCPU each process ran on;
* steal: the share of the vCPUs' busy time the hypervisor took, from
  ``/proc/stat``. Wall-clock times are rescaled by the speed factor
  times ``1 - steal share``.

A change to the program moves the measured times but neither
correction, so it still shows; a spin loop in a second process moved
the pinned probe by no more than the host's own drift (0.96-1.05x its
idle value over three 4 s trials).
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

#: Probe CPU time that defines the reference host (about the figure of
#: an unloaded 2-vCPU Xeon VM at 2.0 GHz).
REFERENCE_MS = 1.0
#: Seconds between probes; one probe costs about 1 ms of the loop per vCPU.
PERIOD = 0.5
#: Most CPUs probed one by one at each tick.
MAX_PINNED = 8
_MODULUS = (1 << 521) - 1


def cpu_ticks() -> tuple:
    """``(busy, steal)`` clock ticks of all CPUs so far."""
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def probe_ms() -> float:
    """Thread CPU milliseconds of one fixed big-integer loop."""
    x, y = 3, _MODULUS // 7
    start = time.thread_time()
    for _ in range(700):
        x = x * y % _MODULUS
    return (time.thread_time() - start) * 1000


def probe_cpus() -> list:
    """``probe_ms()`` on every CPU this thread may run on; on a host with
    more than ``MAX_PINNED`` of them, or where pinning is not allowed,
    one probe wherever the thread runs."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) > MAX_PINNED:
        return [probe_ms()]
    try:
        probes = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            probes.append(probe_ms())
        os.sched_setaffinity(0, allowed)
    except OSError:
        return [probe_ms()]
    return probes


class SpeedProbe:
    """Probe the host every ``PERIOD`` seconds while the block runs."""

    def __init__(self):
        self.samples = []
        self.steal_share = 0.0
        self._ticks = None
        self._stop = None
        self._task = None

    def _tick(self) -> None:
        self.samples.append(statistics.mean(probe_cpus()))

    async def _run(self) -> None:
        while not self._stop.is_set():
            self._tick()
            try:
                await asyncio.wait_for(self._stop.wait(), PERIOD)
            except asyncio.TimeoutError:
                pass

    async def __aenter__(self) -> "SpeedProbe":
        self._ticks = cpu_ticks()
        self._stop = asyncio.Event()
        self._task = asyncio.ensure_future(self._run())
        return self

    async def __aexit__(self, *exc_info) -> bool:
        self._stop.set()
        await self._task
        self._tick()
        busy, steal = (now - then
                       for now, then in zip(cpu_ticks(), self._ticks))
        self.steal_share = steal / (busy + steal) if busy + steal else 0.0
        return False

    @property
    def mean_ms(self) -> float:
        return statistics.mean(self.samples)

    @property
    def scale(self) -> float:
        """Factor taking a CPU time measured under the probe to
        reference speed."""
        return REFERENCE_MS / self.mean_ms

    @property
    def wall_scale(self) -> float:
        """Factor taking a wall-clock time to reference speed and no
        steal (divide rates by it)."""
        return self.scale * (1.0 - self.steal_share)
