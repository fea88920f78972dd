"""The on-server data format of the paper's Fig. 2.

A record is a sequence of data components, each stored as the pair
``(CT_i, E_{k_i}(m_i))``: the CP-ABE ciphertext of the component's
content key next to the symmetrically-encrypted component body. Users
with different attributes decrypt different subsets of the content keys
and therefore see different granularities of the data — the
fine-grained-access story of Section V-A.

The content key never exists as raw bytes inside a group element:
the owner encrypts a random GT *session element* with CP-ABE and both
sides derive ``k_i = KDF(session)`` (KEM/DEM). This is the standard way
to instantiate "the message m is the content keys" with a group-element
message space.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ciphertext import Ciphertext
from repro.crypto.symmetric import SymmetricCiphertext
from repro.errors import SchemeError, StorageError
from repro.pairing.group import PairingGroup


def _take(blob: bytes, offset: int, what: str) -> tuple:
    """One ``u32 length | bytes`` field at ``offset``; returns it and
    the offset just past it."""
    if offset + 4 > len(blob):
        raise StorageError(f"truncated {what}")
    length = int.from_bytes(blob[offset:offset + 4], "big")
    offset += 4
    if offset + length > len(blob):
        raise StorageError(f"truncated {what}")
    return blob[offset:offset + length], offset + length


def _text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise StorageError(f"{what} is not valid UTF-8") from None


def _split_component(blob: bytes) -> tuple:
    """``(name, abe bytes, symmetric bytes)`` of one encoded component."""
    name, offset = _take(blob, 0, "stored component")
    abe, offset = _take(blob, offset, "stored component")
    data, offset = _take(blob, offset, "stored component")
    if offset != len(blob):
        raise StorageError("trailing bytes after stored component")
    return _text(name, "component name"), abe, data


def _split_record(blob: bytes) -> tuple:
    """``(record id, owner id, [(offset, encoded component)])`` — each
    offset is where the component's length prefix starts in ``blob``."""
    record_id, offset = _take(blob, 0, "stored record")
    owner_id, offset = _take(blob, offset, "stored record")
    if offset + 4 > len(blob):
        raise StorageError("truncated stored record")
    count = int.from_bytes(blob[offset:offset + 4], "big")
    offset += 4
    components = []
    for _ in range(count):
        start = offset
        encoded, offset = _take(blob, offset, "stored record")
        components.append((start, encoded))
    if offset != len(blob):
        raise StorageError("trailing bytes after stored record")
    return (_text(record_id, "record id"), _text(owner_id, "owner id"),
            components)


@dataclass(frozen=True)
class StoredComponent:
    """One ``(CT_i, E_{k_i}(m_i))`` pair of Fig. 2."""

    name: str
    abe_ciphertext: Ciphertext
    data_ciphertext: SymmetricCiphertext

    def payload_size_bytes(self, group: PairingGroup) -> int:
        return self.abe_ciphertext.element_size_bytes(group) + len(
            self.data_ciphertext
        )

    def to_bytes(self) -> bytes:
        """length-prefixed: name | ABE ciphertext | symmetric body."""
        name = self.name.encode("utf-8")
        abe = self.abe_ciphertext.to_bytes()
        data = self.data_ciphertext.to_bytes()
        return b"".join(
            len(part).to_bytes(4, "big") + part for part in (name, abe, data)
        )

    @classmethod
    def from_bytes(cls, group: PairingGroup, blob: bytes, *,
                   validate: bool = True) -> "StoredComponent":
        name, abe, data = _split_component(blob)
        return cls(
            name=name,
            abe_ciphertext=Ciphertext.from_bytes(group, abe,
                                                 validate=validate),
            data_ciphertext=SymmetricCiphertext.from_bytes(data),
        )


@dataclass(frozen=True)
class StoredRecord:
    """A full record: ordered components keyed by logical name."""

    record_id: str
    owner_id: str
    components: dict  # name -> StoredComponent

    def component(self, name: str) -> StoredComponent:
        try:
            return self.components[name]
        except KeyError:
            raise StorageError(
                f"record {self.record_id!r} has no component {name!r}"
            ) from None

    def component_names(self) -> tuple:
        return tuple(self.components)

    def payload_size_bytes(self, group: PairingGroup) -> int:
        return sum(
            component.payload_size_bytes(group)
            for component in self.components.values()
        )

    def with_component(self, component: StoredComponent) -> "StoredRecord":
        """A copy with one component replaced (used by re-encryption)."""
        if component.name not in self.components:
            raise StorageError(
                f"record {self.record_id!r} has no component {component.name!r}"
            )
        updated = dict(self.components)
        updated[component.name] = component
        return StoredRecord(
            record_id=self.record_id,
            owner_id=self.owner_id,
            components=updated,
        )

    def to_bytes(self) -> bytes:
        """Durable on-disk form: ids then length-prefixed components."""
        record_id = self.record_id.encode("utf-8")
        owner_id = self.owner_id.encode("utf-8")
        blob = (
            len(record_id).to_bytes(4, "big") + record_id
            + len(owner_id).to_bytes(4, "big") + owner_id
            + len(self.components).to_bytes(4, "big")
        )
        for name in sorted(self.components):
            encoded = self.components[name].to_bytes()
            blob += len(encoded).to_bytes(4, "big") + encoded
        return blob

    @classmethod
    def from_bytes(cls, group: PairingGroup, blob: bytes, *,
                   validate: bool = True) -> "StoredRecord":
        """Decode a record; ``validate=False`` (trusted, store-internal
        bytes only) skips the per-element subgroup checks, which dominate
        decode time for multi-row policies."""
        record_id, owner_id, encoded_components = _split_record(blob)
        components = {}
        for _, encoded in encoded_components:
            component = StoredComponent.from_bytes(group, encoded,
                                                   validate=validate)
            if component.name in components:
                raise StorageError(
                    f"duplicate component {component.name!r} in record"
                )
            components[component.name] = component
        return cls(
            record_id=record_id,
            owner_id=owner_id,
            components=components,
        )


@dataclass(frozen=True)
class ComponentFrame:
    """One component of a record blob, located by framing alone."""

    name: str
    encoded: bytes      # exactly the StoredComponent.to_bytes() slice
    ciphertext_id: str  # read from the ABE ciphertext's JSON header
    payload_size: int   # Table-II size: |GT| + (l+1)|G| + |E_k(m)|
    offset: int         # where its length prefix starts in the record blob


@dataclass(frozen=True)
class RecordFrame:
    """A record blob's framing: ids and component slices, no elements."""

    record_id: str
    owner_id: str
    components: dict  # name -> ComponentFrame

    def component(self, name: str) -> ComponentFrame:
        try:
            return self.components[name]
        except KeyError:
            raise StorageError(
                f"record {self.record_id!r} has no component {name!r}"
            ) from None

    def payload_size_bytes(self) -> int:
        return sum(frame.payload_size for frame in self.components.values())


def scan_record(blob: bytes) -> RecordFrame:
    """Frame a :meth:`StoredRecord.to_bytes` blob without touching a
    single group element: no point decode, no subgroup check.

    For the store's own digest-verified bytes, whose every element was
    subgroup-checked when it came in over the wire. Garbage or
    truncated input raises :class:`StorageError` and nothing else.
    """
    record_id, owner_id, encoded_components = _split_record(blob)
    components = {}
    for offset, encoded in encoded_components:
        name, abe, data = _split_component(encoded)
        try:
            ciphertext_id, element_bytes = Ciphertext.peek(abe)
        except SchemeError as exc:
            raise StorageError(f"component {name!r}: {exc}") from None
        if name in components:
            raise StorageError(f"duplicate component {name!r} in record")
        components[name] = ComponentFrame(
            name=name,
            encoded=encoded,
            ciphertext_id=ciphertext_id,
            payload_size=element_bytes + len(data),
            offset=offset,
        )
    return RecordFrame(record_id=record_id, owner_id=owner_id,
                       components=components)


def splice_component(blob: bytes, frame: ComponentFrame,
                     encoded: bytes) -> bytes:
    """``blob`` with the component at ``frame`` replaced by ``encoded``.

    ``frame`` comes from :func:`scan_record` of this very ``blob``, and
    ``encoded`` is a ``StoredComponent.to_bytes()`` of the same name,
    so the component order — and, for a canonical blob, the bytes of
    ``record.with_component(c).to_bytes()`` — are preserved exactly.
    """
    end = frame.offset + 4 + len(frame.encoded)
    return (blob[:frame.offset] + len(encoded).to_bytes(4, "big")
            + encoded + blob[end:])
