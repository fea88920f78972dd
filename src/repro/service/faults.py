"""Deterministic, seed-driven fault injection between client and server.

:class:`ChaosProxy` is a real TCP proxy that sits on the wire in front
of a :class:`repro.service.server.StorageService`. Requests (client →
server) are forwarded verbatim; replies (server → client) are parsed at
frame granularity so every injected failure is a *well-defined* wire
event:

* ``drop``      — the connection is severed at a frame boundary, after
  the server already processed the request (the nasty case for
  mutations: only idempotency keys make the retry safe);
* ``delay``     — the reply is held back for ``delay_seconds``, long
  enough to push a client past its timeout;
* ``corrupt``   — the reply's type byte has its high bit flipped, so the
  client sees an unknown frame type (a garbled reply, not a typed
  error);
* ``truncate``  — the frame header promises the full reply but only
  half the payload arrives before the connection closes;
* ``duplicate`` — the reply frame is sent twice, exercising the
  sequence-number discard path;
* ``withhold``  — the frame is swallowed but the connection stays up:
  the client sees silence, not an error (the adversarial server that
  "forgets" to stream a SWEEP_PROGRESS frame);
* ``reorder``   — the frame is held back and emitted *after* the next
  forwarded frame, so replies arrive out of order.

Every decision is drawn from a :class:`random.Random` seeded per
connection from the proxy seed, so a failing run replays exactly. A
``schedule`` mapping (global reply-frame index → fault name) overrides
the dice for tests that need one specific fault at one specific
moment; a ``type_schedule`` mapping (frame type byte → list of fault
names, consumed FIFO) targets faults at *semantic* frame types — "the
first two SWEEP_PROGRESS frames are withheld" — independent of how
many handshake frames preceded them. Everything injected is recorded
in :attr:`ChaosProxy.injected` so tests can cross-check the client's
retry log against ground truth, and :meth:`ChaosProxy.trace` exports
that record as a replayable JSON document — feed it back through
:meth:`ChaosProxy.from_trace` (or ``repro client smoke
--chaos-trace``) to re-run a failing scenario with the exact fault
schedule instead of the dice.

:meth:`ChaosProxy.partition` simulates a network partition: existing
connections are severed and new ones are refused until
:meth:`ChaosProxy.heal` — the upstream node itself stays healthy, which
is exactly the "stale replica behind a partition" shape the cluster
adversary scenarios need.

:class:`ChaosFleet` scales the same machinery to a cluster: ONE process
fronts N upstream nodes, one listener per node, each with its own
:class:`FaultSpec`, its own derived seed, and its own schedule — so a
multi-node test can make exactly one replica misbehave (or all of them,
independently) while every connection still flows through proxies whose
injections replay deterministically.
"""

from __future__ import annotations

import asyncio
import random

_FAULTS = ("drop", "delay", "corrupt", "truncate", "duplicate",
           "withhold", "reorder")


class FaultSpec:
    """Per-frame fault probabilities (plus the delay duration)."""

    def __init__(self, *, drop: float = 0.0, delay: float = 0.0,
                 corrupt: float = 0.0, truncate: float = 0.0,
                 duplicate: float = 0.0, withhold: float = 0.0,
                 reorder: float = 0.0, delay_seconds: float = 1.5):
        self.drop = drop
        self.delay = delay
        self.corrupt = corrupt
        self.truncate = truncate
        self.duplicate = duplicate
        self.withhold = withhold
        self.reorder = reorder
        self.delay_seconds = delay_seconds
        if sum(self.rates().values()) > 1.0:
            raise ValueError("fault rates must sum to at most 1")

    def rates(self) -> dict:
        return {name: getattr(self, name) for name in _FAULTS}

    def draw(self, rng: random.Random):
        """One fault decision: a fault name, or ``None`` to forward."""
        roll = rng.random()
        for name, rate in self.rates().items():
            if roll < rate:
                return name
            roll -= rate
        return None


class ChaosProxy:
    """A frame-aware TCP proxy injecting seeded faults into replies."""

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 spec: FaultSpec = None, seed: int = 0,
                 schedule: dict = None, type_schedule: dict = None,
                 host: str = "127.0.0.1"):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.spec = spec if spec is not None else FaultSpec()
        self.seed = seed
        self.schedule = dict(schedule or {})
        # frame type byte -> FIFO of fault names; MessageType enums work
        # as keys too (int() normalizes them).
        self.type_schedule = {int(key): list(value)
                              for key, value in (type_schedule or {}).items()}
        self.host = host
        self.port = None
        self.partitioned = False
        self.injected = []       # [{conn, frame, fault, frame_type}, ...]
        self._server = None
        self._tasks = set()
        self._conn_tasks = set()
        self._writers = set()
        self._conn_counter = 0
        self._reply_counter = 0  # global reply-frame index (schedule key)

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "ChaosProxy":
        self._server = await asyncio.start_server(self._accept, self.host, 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # Let the per-connection handlers finish their teardown so no
        # half-cancelled task survives into loop shutdown.
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._tasks.clear()
        self._conn_tasks.clear()
        self._writers.clear()

    def fault_counts(self) -> dict:
        counts = {}
        for fault in self.injected:
            counts[fault["fault"]] = counts.get(fault["fault"], 0) + 1
        return counts

    # -- partition injection ----------------------------------------------

    def partition(self) -> None:
        """Cut this proxy off: sever live connections, refuse new ones.

        The upstream node keeps running untouched — from the cluster's
        point of view it is unreachable, not dead, which is the shape
        that leaves stale replicas behind after :meth:`heal`.
        """
        self.partitioned = True
        for writer in list(self._writers):
            writer.close()

    def heal(self) -> None:
        """End the partition; new connections relay normally again."""
        self.partitioned = False

    # -- replayable fault traces ------------------------------------------

    def trace(self) -> dict:
        """A JSON-safe record of this run's faults, replayable exactly.

        The ``injected`` log *is* the schedule of a replay: every fault
        this proxy rolled (or was scheduled) is pinned to its global
        reply-frame index, so :meth:`from_trace` can re-run the same
        workload with zeroed dice and an index schedule instead.
        """
        return {
            "seed": self.seed if isinstance(self.seed, int) else str(self.seed),
            "spec": {**self.spec.rates(),
                     "delay_seconds": self.spec.delay_seconds},
            "injected": [dict(entry) for entry in self.injected],
        }

    @classmethod
    def from_trace(cls, upstream_host: str, upstream_port: int,
                   trace: dict, *, host: str = "127.0.0.1") -> "ChaosProxy":
        """A proxy that replays ``trace``'s exact fault schedule.

        The dice are zeroed; every recorded fault becomes a schedule
        entry at its original reply-frame index. Replay fidelity
        requires the client to issue the same request sequence (the
        seeded smoke/scenario cycles do).
        """
        spec = FaultSpec(
            delay_seconds=trace.get("spec", {}).get("delay_seconds", 1.5))
        schedule = {int(entry["frame"]): entry["fault"]
                    for entry in trace.get("injected", [])}
        return cls(upstream_host, upstream_port, spec=spec,
                   schedule=schedule, host=host)

    # -- per-connection plumbing ------------------------------------------

    async def _accept(self, client_reader, client_writer):
        self._conn_tasks.add(asyncio.current_task())
        try:
            await self._relay(client_reader, client_writer)
        except asyncio.CancelledError:
            # Proxy/loop shutdown mid-teardown: _relay's finally already
            # closed both writers; ending quietly keeps the cancellation
            # out of asyncio's connection-callback plumbing.
            pass
        finally:
            self._conn_tasks.discard(asyncio.current_task())

    async def _relay(self, client_reader, client_writer):
        if self.partitioned:
            client_writer.close()
            return
        conn_index = self._conn_counter
        self._conn_counter += 1
        self._writers.add(client_writer)
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            client_writer.close()
            self._writers.discard(client_writer)
            return
        self._writers.add(upstream_writer)
        rng = random.Random(f"{self.seed}:{conn_index}")
        pumps = [
            asyncio.ensure_future(
                self._pump_requests(client_reader, upstream_writer)
            ),
            asyncio.ensure_future(
                self._pump_replies(upstream_reader, client_writer,
                                   conn_index, rng)
            ),
        ]
        self._tasks.update(pumps)
        try:
            # Either direction ending (EOF, injected drop, error) tears
            # the whole relayed connection down, like a real middlebox.
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
                self._tasks.discard(pump)
            for writer in (client_writer, upstream_writer):
                writer.close()
                self._writers.discard(writer)
            await asyncio.gather(*pumps, return_exceptions=True)

    async def _pump_requests(self, client_reader, upstream_writer):
        """client → server: forwarded verbatim, no frame parsing."""
        try:
            while True:
                chunk = await client_reader.read(65536)
                if not chunk:
                    return
                upstream_writer.write(chunk)
                await upstream_writer.drain()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return

    async def _pump_replies(self, upstream_reader, client_writer,
                            conn_index, rng):
        """server → client: one fault decision per reply frame."""
        held = None  # reorder buffer: at most one frame waiting its turn
        try:
            while True:
                header = await upstream_reader.readexactly(4)
                length = int.from_bytes(header, "big")
                payload = await upstream_reader.readexactly(length)
                frame_type = payload[0] if payload else None
                frame_index = self._reply_counter
                self._reply_counter += 1
                if frame_index in self.schedule:
                    fault = self.schedule[frame_index]
                elif self.type_schedule.get(frame_type):
                    # Semantic targeting: this frame *type*'s FIFO of
                    # pending faults, independent of global indices.
                    fault = self.type_schedule[frame_type].pop(0)
                else:
                    fault = self.spec.draw(rng)
                if fault is not None:
                    self.injected.append({
                        "conn": conn_index,
                        "frame": frame_index,
                        "fault": fault,
                        "frame_type": frame_type,
                    })
                if fault == "drop":
                    return
                if fault == "truncate":
                    client_writer.write(header + payload[:length // 2])
                    await client_writer.drain()
                    return
                if fault == "withhold":
                    # Swallow the frame; the connection lives on. The
                    # client sees silence where a reply should be.
                    continue
                if fault == "reorder":
                    # Hold this frame back; it rides out *after* the
                    # next forwarded frame (and is simply lost if the
                    # connection ends first — recorded either way).
                    held = header + payload
                    continue
                if fault == "delay":
                    await asyncio.sleep(self.spec.delay_seconds)
                elif fault == "corrupt":
                    payload = bytes([payload[0] ^ 0x80]) + payload[1:]
                frame = header + payload
                if fault == "duplicate":
                    frame += frame
                client_writer.write(frame)
                if held is not None:
                    client_writer.write(held)
                    held = None
                await client_writer.drain()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return


class ChaosFleet:
    """One process fronting many upstream nodes, one proxy per node.

    ``upstreams`` maps an upstream name to ``(host, port)``; per-name
    ``specs``/``schedules`` entries override the default ``spec`` (an
    absent entry means that node's proxy forwards faithfully — an
    all-zero :class:`FaultSpec`). Each proxy draws from its own RNG
    seeded ``f"{seed}:{name}"``, so one node's fault stream never
    shifts another's: adding faults in front of node A replays node B's
    connections bit-for-bit.

    ``address(name)`` is what a cluster map should carry so every
    client connection to that node crosses its proxy.
    """

    def __init__(self, upstreams: dict, *, spec: FaultSpec = None,
                 specs: dict = None, schedules: dict = None,
                 type_schedules: dict = None, seed: int = 0,
                 host: str = "127.0.0.1"):
        self.seed = seed
        self.proxies = {}
        specs = specs or {}
        schedules = schedules or {}
        type_schedules = type_schedules or {}
        for name, (upstream_host, upstream_port) in upstreams.items():
            node_spec = specs.get(name, spec)
            self.proxies[name] = ChaosProxy(
                upstream_host, upstream_port,
                spec=node_spec if node_spec is not None else FaultSpec(),
                seed=f"{seed}:{name}",
                schedule=schedules.get(name),
                type_schedule=type_schedules.get(name), host=host,
            )

    async def start(self) -> "ChaosFleet":
        for proxy in self.proxies.values():
            await proxy.start()
        return self

    async def stop(self) -> None:
        for proxy in self.proxies.values():
            await proxy.stop()

    def address(self, name: str) -> tuple:
        """``(host, port)`` clients should dial to reach ``name``."""
        proxy = self.proxies[name]
        return proxy.host, proxy.port

    def partition(self, name: str) -> None:
        """Partition one node's proxy (see :meth:`ChaosProxy.partition`)."""
        self.proxies[name].partition()

    def heal(self, name: str) -> None:
        self.proxies[name].heal()

    def partitioned_nodes(self) -> list:
        return [name for name, proxy in self.proxies.items()
                if proxy.partitioned]

    def trace(self) -> dict:
        """Per-node replayable fault traces (see :meth:`ChaosProxy.trace`)."""
        return {name: proxy.trace()
                for name, proxy in self.proxies.items()}

    @classmethod
    def from_trace(cls, upstreams: dict, trace: dict, *,
                   host: str = "127.0.0.1") -> "ChaosFleet":
        """A fleet whose proxies replay ``trace``'s per-node schedules."""
        fleet = cls(upstreams, host=host)
        for name, node_trace in trace.items():
            if name in fleet.proxies:
                upstream = fleet.proxies[name]
                fleet.proxies[name] = ChaosProxy.from_trace(
                    upstream.upstream_host, upstream.upstream_port,
                    node_trace, host=host,
                )
        return fleet

    def injected_by_node(self) -> dict:
        return {name: list(proxy.injected)
                for name, proxy in self.proxies.items()}

    def fault_counts(self) -> dict:
        """Aggregate fault tallies across every fronted node."""
        counts = {}
        for proxy in self.proxies.values():
            for fault, count in proxy.fault_counts().items():
                counts[fault] = counts.get(fault, 0) + count
        return counts
