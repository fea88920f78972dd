"""Trust fabric, key issuance and store population for one benchmark run.

Everything here goes through the public client API: authorities publish
into the server's key directory with :class:`AuthorityClient`, the
owner learns those keys back from the server and uploads records with
:class:`OwnerClient`, and every user is its own :class:`UserClient`
holding keys it was issued with ``receive_secret_key``. The generator
uses exactly ``CONNECTIONS`` pipelined connections; every client role
of one connection shares it.

Inputs come from the seed alone: the client-side group is seeded, so
keys, ciphertexts and payloads are the same for the same seed.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from dataclasses import dataclass

from repro.core.authority import AttributeAuthority
from repro.core.ca import CertificateAuthority
from repro.core.owner import DataOwner
from repro.fastpath.session import DEFAULT_POOL_TARGET
from repro.pairing.group import PairingGroup
from repro.service.client import (
    AuthorityClient,
    OwnerClient,
    ServiceConnection,
    UserClient,
)
from repro.service.retry import RetryPolicy

#: At most one connection per core of the benchmark host (nproc = 2).
CONNECTIONS = 2
#: Requests in flight per pipelined connection.
MAX_INFLIGHT = 8
PAYLOAD_BYTES = 1024
OWNER = "owner"
COMPONENT = "data"
#: Three authorities, one attribute each; every user holds all three.
AUTHORITIES = {"aa0": "x", "aa1": "y", "aa2": "z"}
#: 2- and 3-attribute ANDs over the three authorities: sessions see
#: reuse without collapsing to one shape.
SHAPES = (
    "aa0:x AND aa1:y",
    "aa0:x AND aa2:z",
    "aa1:y AND aa2:z",
    "aa0:x AND aa1:y AND aa2:z",
)
#: The revoke workload's shapes: every one involves the revoked ``aa0``.
REVOKE_AID = "aa0"
REVOKE_SHAPES = tuple(shape for shape in SHAPES if "aa0:" in shape)
REVOKEE = "revokee"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Item:
    """What the benchmark uploaded for one record, to check replies by."""

    record_id: str
    policy: str
    plaintext_sha: str   # SHA-256 of the payload the owner encrypted
    sealed: bytes        # the component's sealed body (kept by ReEncrypt)
    payload_bytes: int


class World:
    """The client side of one benchmark run against one server."""

    def __init__(self, params, seed: int, host: str, port: int):
        self.seed = seed
        self.group = PairingGroup(params, seed=seed)
        self.rng = random.Random(f"payload:{seed}")
        self.host, self.port = host, port
        self.store_root = None  # the server's store (measured on disk)
        self.ca = CertificateAuthority(self.group)
        self.authorities = {
            aid: AttributeAuthority(self.group, aid, [attribute])
            for aid, attribute in AUTHORITIES.items()
        }
        self.owner_core = DataOwner(self.group, OWNER)
        self.ca.register_owner(OWNER)
        for aid, authority in self.authorities.items():
            self.ca.register_authority(aid)
            authority.register_owner(self.owner_core.secret_key)
        self.connections = []
        self.owners = []     # one OwnerClient per connection
        self.readers = []    # one UserClient (its own user) per connection
        self.revokee = None  # UserClient on connection 0 (revoke workload)
        self.items = {}      # record id -> Item

    async def connect(self) -> None:
        for index in range(CONNECTIONS):
            connection = ServiceConnection(
                self.group, self.host, self.port, role="user",
                name=f"bench-{index}", max_inflight=MAX_INFLIGHT,
                retry=RetryPolicy(max_attempts=3,
                                  rng=random.Random(f"{self.seed}:{index}")),
            )
            await connection.connect()
            self.connections.append(connection)
            self.owners.append(OwnerClient(connection, self.owner_core))
        publisher = self.connections[0]
        for aid, authority in self.authorities.items():
            await AuthorityClient(publisher, authority).publish_keys()
            await self.owners[0].learn_authorities(aid)

    def _issue(self, user: UserClient) -> None:
        user.receive_public_key(self.ca.register_user(user.uid))
        for aid, authority in self.authorities.items():
            user.receive_secret_key(authority.keygen(
                user.public_key, [AUTHORITIES[aid]], OWNER
            ))

    def issue_keys(self, *, revokee: bool = False) -> None:
        """Out-of-band key issuance, as in the paper (AA -> user)."""
        for index, connection in enumerate(self.connections):
            reader = UserClient(connection, f"reader{index}")
            self._issue(reader)
            self.readers.append(reader)
        if revokee:
            self.revokee = UserClient(self.connections[0], REVOKEE)
            self._issue(self.revokee)

    def regrant_revokee(self) -> None:
        """Issue the revokee's ``aa0`` key again at the current version."""
        authority = self.authorities[REVOKE_AID]
        self.revokee.receive_secret_key(authority.keygen(
            self.revokee.public_key, [AUTHORITIES[REVOKE_AID]], OWNER
        ))

    async def register_transform_keys(self) -> None:
        for reader in self.readers:
            await reader.register_transform_key(OWNER)

    def payload(self) -> bytes:
        return self.rng.randbytes(PAYLOAD_BYTES)

    def ensure_bundles(self, policy: str, count: int = 1):
        """The owner's offline phase: refill the policy's session pool
        when it cannot serve ``count`` encryptions (a refill builds the
        session's default pool target in one batch)."""
        session = self.owner_core.session_for(policy)
        if session.pool_size < count:
            session.refill(max(count, DEFAULT_POOL_TARGET))
        return session

    async def upload(self, owner: OwnerClient, record_id: str, policy: str,
                     plaintext: bytes) -> Item:
        self.ensure_bundles(policy)
        record = await owner.upload(
            record_id, {COMPONENT: (plaintext, policy)}
        )
        item = Item(
            record_id=record_id, policy=policy,
            plaintext_sha=sha256(plaintext),
            sealed=record.component(COMPONENT).data_ciphertext.to_bytes(),
            payload_bytes=len(plaintext),
        )
        self.items[record_id] = item
        return item

    async def populate(self, prefix: str, count: int, shapes) -> list:
        """Upload ``count`` records over every connection, pipelined.

        Offline bundles are built per chunk of records, so the server
        decodes one chunk while the owner encrypts the next.
        """
        # Shapes cycle by index (the Zipf rank): the cost mix of a run
        # is then the same for every seed, which only varies keys,
        # payloads and the op sequence.
        specs = [
            (f"{prefix}-{index:04d}", shapes[index % len(shapes)],
             self.payload())
            for index in range(count)
        ]
        tasks = []
        chunk = 16
        for start in range(0, count, chunk):
            batch = specs[start:start + chunk]
            for policy in sorted({policy for _, policy, _ in batch}):
                self.ensure_bundles(
                    policy, sum(1 for _, p, _ in batch if p == policy)
                )
            for offset, (record_id, policy, plaintext) in enumerate(batch):
                owner = self.owners[(start + offset) % len(self.owners)]
                tasks.append(asyncio.ensure_future(
                    self.upload(owner, record_id, policy, plaintext)
                ))
            await asyncio.sleep(0)
        return list(await asyncio.gather(*tasks))

    def live_payload_bytes(self) -> int:
        return sum(item.payload_bytes for item in self.items.values())

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()
