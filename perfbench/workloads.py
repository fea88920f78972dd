"""The three workloads: ``read``, ``mixed`` and ``revoke``.

Each workload populates the store, warms the caches a user would warm
on first use (each reader's decrypt sessions), runs one measured
window, and then checks what the window left behind. ``headline`` names
the op classes its ``p50_ms``/``tail_ms`` describe and ``ops`` what its
``ops_s`` counts.

A fourth workload, a closed loop of raw fetches, was dropped: it is
bound by cross-process wake-ups over loopback, which host contention on
the benchmark VM slows far more than computation, so its run-to-run
spread exceeded every bound (see README.md).

Why these three (each stresses a different layer; see README.md):

* ``read``   — the paper's user decryption path: codec decode on both
  sides plus pairings, over a pool that fits the server's blob cache;
* ``mixed``  — a closed loop of reads, offloaded reads, uploads and
  replaces, so work moved between the read, write and offload paths
  shows up;
* ``revoke`` — repeated Section V-C revocation rounds over a store
  larger than the blob cache, with a raw-fetch stream measuring the
  stall a sweep imposes on other clients.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time

from repro.core.revocation import rekey_standard
from repro.errors import SchemeError
from repro.loadgen.workload import ZipfPopularity
from repro.service import protocol
from repro.service.protocol import MessageType

from server import tree_bytes
from loops import (
    GateFailure,
    closed_loop,
    open_loop,
    poisson_schedule,
)
from world import (
    AUTHORITIES,
    COMPONENT,
    REVOKE_AID,
    REVOKE_SHAPES,
    REVOKEE,
    SHAPES,
    sha256,
)

POOL = 64           # fits the server's default 128-entry blob cache
REPLACE_POOL = 16   # mixed: records only replaces touch
REVOKE_POOL = 256   # larger than the blob cache
ZIPF_ALPHA = 1.1
#: mixed: each worker runs these ops (45/20/20/15%) in a fresh seeded
#: order, block after block.
MIXED_BLOCK = (("read", 9), ("offload_read", 4), ("upload", 4),
               ("replace", 3))
REVOKE_FETCH_RATE = 40.0  # revoke: background raw fetches per second
MAX_OUTSTANDING = 256  # open loops shed arrivals beyond this backlog


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


class Workload:
    name = ""
    records = POOL
    shapes = SHAPES
    revokee = False
    headline = ("read",)

    def __init__(self, seed: int):
        self.seed = seed
        #: Set for the measured window by the smoke test's sabotage run:
        #: every reply check then expects a wrong digest.
        self.sabotage = False
        self.pool = []
        self.popularity = None

    def rng(self, label) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{label}")

    def expected(self, item, field: str) -> str:
        """The digest a reply must match; sabotage flips it."""
        value = getattr(item, field)
        return "0" * 64 if self.sabotage else value

    async def prepare(self, world) -> None:
        self.pool = await world.populate("rec", self.records, self.shapes)
        self.popularity = ZipfPopularity(len(self.pool), alpha=ZIPF_ALPHA)

    def pick(self, rng):
        return self.pool[self.popularity.sample(rng)]

    # -- op builders ------------------------------------------------------

    def read_op(self, reader, item, outsourced: bool = False):
        async def run():
            if outsourced:
                plaintext = await reader.read_outsourced(item.record_id,
                                                         COMPONENT)
            else:
                plaintext = await reader.read(item.record_id, COMPONENT)
            check(sha256(plaintext) == self.expected(item, "plaintext_sha"),
                  f"read of {item.record_id} returned the wrong plaintext")
        return run

    def fetch_op(self, connection, item):
        """A raw ``FETCH_RECORD`` whose reply is checked without decoding.

        The check is version-independent: ReEncrypt rewrites the ABE
        part of a record but keeps its id and its sealed body."""
        async def run():
            _, body = await connection.request(
                MessageType.FETCH_RECORD,
                protocol.encode_json({"record": item.record_id}),
                expect=MessageType.RECORD,
            )
            check(body[4:4 + len(item.record_id)]
                  == item.record_id.encode("utf-8")
                  and item.sealed in body and not self.sabotage,
                  f"fetch of {item.record_id} returned the wrong record")
        return run

    async def warm(self, world) -> None:
        """Build each reader's decrypt session for every shape."""
        by_shape = {}
        for item in self.pool:
            by_shape.setdefault(item.policy, item)
        for reader in world.readers:
            for item in by_shape.values():
                await self.read_op(reader, item)()

    async def run(self, world, recorder, seconds: float) -> float:
        raise NotImplementedError

    async def verify(self, world) -> None:
        """Post-window checks of what the window wrote."""

    def store_footprint(self, world) -> int:
        """On-disk bytes of the store the window left behind."""
        return tree_bytes(world.store_root)

    def ops(self, recorder) -> int:
        return recorder.completed(*self.headline)


class ReadWorkload(Workload):
    """Closed loop, one worker per connection, 100% ``UserClient.read``."""

    name = "read"

    async def run(self, world, recorder, seconds):
        def worker(index):
            rng = self.rng(f"worker{index}")
            reader = world.readers[index]

            def next_op():
                return "read", self.read_op(reader, self.pick(rng))
            return next_op

        return await closed_loop(
            recorder, [worker(i) for i in range(len(world.readers))], seconds
        )


class MixedWorkload(Workload):
    """Closed loop, one worker per connection, each running
    ``MIXED_BLOCK`` in a fresh seeded order block after block: reads,
    offloaded reads, uploads of new records and component replaces."""

    name = "mixed"
    headline = ("read", "offload_read", "upload", "replace")

    def __init__(self, seed):
        super().__init__(seed)
        self.replace_pool = []
        self.replace_locks = {}
        self.uploaded = []
        # Fresh record ids across every window of a run (a traced run
        # measures two windows against one store).
        self.upload_ids = itertools.count()

    async def prepare(self, world):
        await super().prepare(world)
        self.replace_pool = await world.populate(
            "mut", REPLACE_POOL, self.shapes
        )
        self.replace_locks = {item.record_id: asyncio.Lock()
                              for item in self.replace_pool}
        await world.register_transform_keys()

    async def warm(self, world):
        await super().warm(world)
        for reader in world.readers:
            await self.read_op(reader, self.pool[0], outsourced=True)()

    def upload_op(self, world, owner, record_id, policy, plaintext):
        async def run():
            item = await world.upload(owner, record_id, policy, plaintext)
            self.uploaded.append(item)
        return run

    def replace_op(self, world, owner, item, plaintext):
        async def run():
            async with self.replace_locks[item.record_id]:
                world.ensure_bundles(item.policy)
                component = await owner.update_component(
                    item.record_id, COMPONENT, plaintext, item.policy
                )
                item.plaintext_sha = sha256(plaintext)
                item.sealed = component.data_ciphertext.to_bytes()
        return run

    async def run(self, world, recorder, seconds):
        block = [cls for cls, count in MIXED_BLOCK for _ in range(count)]

        def worker(slot):
            rng = self.rng(f"worker{slot}")
            reader, owner = world.readers[slot], world.owners[slot]
            order = []

            def next_op():
                if not order:
                    order.extend(block)
                    rng.shuffle(order)
                cls = order.pop()
                if cls == "read":
                    return cls, self.read_op(reader, self.pick(rng))
                if cls == "offload_read":
                    return cls, self.read_op(reader, self.pick(rng),
                                             outsourced=True)
                if cls == "upload":
                    return cls, self.upload_op(
                        world, owner, f"new-{next(self.upload_ids):05d}",
                        self.shapes[rng.randrange(len(self.shapes))],
                        world.payload(),
                    )
                item = self.replace_pool[rng.randrange(len(self.replace_pool))]
                return cls, self.replace_op(world, owner, item,
                                            world.payload())
            return next_op

        return await closed_loop(
            recorder, [worker(i) for i in range(len(world.connections))],
            seconds,
        )

    async def verify(self, world):
        reader = world.readers[0]
        for item in self.replace_pool + self.uploaded[:8]:
            await self.read_op(reader, item)()


class RevokeWorkload(Workload):
    """Repeated revocation rounds over a store larger than the blob
    cache, with a low-rate open-loop raw-fetch stream throughout."""

    name = "revoke"
    records = REVOKE_POOL
    shapes = REVOKE_SHAPES
    revokee = True
    headline = ("fetch",)

    def __init__(self, seed):
        super().__init__(seed)
        self.store_bytes = None

    def sweep_op(self, world, recorder, update_key, expected_ids):
        async def run():
            summary = await world.owners[0].sweep_revocation(update_key)
            updated = set(summary.get("updated", ()))
            check(updated == expected_ids and not summary.get("errors")
                  and not summary.get("missing")
                  and not summary.get("already_current"),
                  f"sweep updated {len(updated)} of {len(expected_ids)} "
                  f"eligible records (errors {summary.get('errors')})")
            recorder.units += len(updated)
        return run

    async def revoked_read_fails(self, world, item) -> None:
        """The revokee still holds its pre-roll key: the re-encrypted
        record must refuse it with the version mismatch's
        ``SchemeError``, and with no other error."""
        try:
            await world.revokee.read(item.record_id, COMPONENT)
        except SchemeError:
            check(not self.sabotage, "sabotage: revoked read gate inverted")
            return
        except Exception as exc:
            raise GateFailure(f"the revoked user's read of {item.record_id} "
                              f"failed with {exc!r}, not SchemeError") from exc
        raise GateFailure("the revoked user still decrypts after the sweep")

    async def rolled_read(self, reader, item) -> None:
        """A reader that rolled its keys must read the re-encrypted
        record; any error is a failed gate, not an op failure."""
        try:
            await self.read_op(reader, item)()
        except GateFailure:
            raise
        except Exception as exc:
            raise GateFailure(f"rolled reader's read of {item.record_id} "
                              f"after the sweep failed: {exc!r}") from exc

    async def round(self, world, recorder, rng) -> None:
        authority = world.authorities[REVOKE_AID]
        update_key = rekey_standard(authority, REVOKEE,
                                    [AUTHORITIES[REVOKE_AID]]).update_key
        expected_ids = {f"{item.record_id}/{COMPONENT}" for item in self.pool}
        await recorder.execute("sweep", self.sweep_op(
            world, recorder, update_key, expected_ids), time.perf_counter())
        for reader in world.readers:
            reader.apply_update_key(update_key)
        for reader in world.readers:
            await self.rolled_read(reader, self.pick(rng))
        await self.revoked_read_fails(world, self.pick(rng))
        world.regrant_revokee()
        if self.store_bytes is None:
            # Space amplification after one revocation: later rounds add
            # pack files, so a count of rounds (which grows as sweeps get
            # faster) must not drive the figure.
            self.store_bytes = tree_bytes(world.store_root)

    async def run(self, world, recorder, seconds):
        rng = self.rng("rounds")
        fetch_rng = self.rng("fetches")
        n = len(world.connections)
        stop = asyncio.Event()
        # Long enough for any round overrunning the window; ``stop``
        # ends it when the last round does.
        schedule = poisson_schedule(self.rng("arrivals"), REVOKE_FETCH_RATE,
                                    4 * seconds + 60)

        def next_fetch(index):
            return "fetch", self.fetch_op(world.connections[index % n],
                                          self.pick(fetch_rng))

        background = asyncio.ensure_future(
            open_loop(recorder, schedule, next_fetch, MAX_OUTSTANDING, stop)
        )
        start = time.perf_counter()
        try:
            while time.perf_counter() - start < seconds:
                await self.round(world, recorder, rng)
        finally:
            stop.set()
            await background
        return time.perf_counter() - start

    def ops(self, recorder):
        return recorder.units

    def store_footprint(self, world):
        return self.store_bytes


WORKLOADS = {cls.name: cls for cls in
             (ReadWorkload, MixedWorkload, RevokeWorkload)}
