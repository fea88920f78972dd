"""The storage server's trust boundary: one subgroup check per element.

Every group element is subgroup-checked once, when it comes in over the
wire (``STORE_RECORD``, ``REPLACE_COMPONENT``, ``REPAIR_RECORD``,
``PUT_AUTHORITY_KEYS``). From then on the server works on its own
digest-verified bytes: fetches serve stored slices with no element
decode, replaces splice the checked component into the stored blob,
and ops that compute on a stored ciphertext decode that one component
trusted. These tests pin each side of that line: what is served and
written stays byte-identical to a full decode and re-encode, the hot
handlers decode nothing, and hostile input is still refused at the
wire.
"""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec.curve import INFINITY
from repro.errors import MathError, StorageError
from repro.pairing.group import PairingGroup
from repro.service import protocol
from repro.service.client import OwnerClient, ServiceConnection, UserClient
from repro.service.protocol import MessageType
from repro.service.store import RecordStore
from repro.system.records import (
    StoredComponent,
    StoredRecord,
    scan_record,
    splice_component,
)

from .conftest import Scenario, run, start_service

COMPONENTS = {
    "note": (b"MRI shows nothing acute.", "hospital:doctor"),
    "plan": (b"Rest, fluids.", "hospital:doctor OR hospital:nurse"),
    "xray": (b"\x00\xff" * 40, "hospital:nurse AND hospital:doctor"),
}


def pack(*parts) -> bytes:
    return b"".join(len(part).to_bytes(4, "big") + part for part in parts)


def unpack3(blob: bytes) -> list:
    parts, offset = [], 0
    for _ in range(3):
        length = int.from_bytes(blob[offset:offset + 4], "big")
        parts.append(blob[offset + 4:offset + 4 + length])
        offset += 4 + length
    return parts


def noncanonical(component: StoredComponent) -> bytes:
    """The component's wire bytes with its ABE header re-serialized
    (reversed keys, padded separators, no ``lsss`` field): it decodes
    to the same component but does not re-encode to these bytes."""
    name, abe, data = unpack3(component.to_bytes())
    header_len = int.from_bytes(abe[:4], "big")
    header = json.loads(abe[4:4 + header_len])
    assert header.pop("lsss") == "expand"
    raw = json.dumps(dict(reversed(list(header.items()))),
                     indent=2).encode("utf-8")
    return pack(name, len(raw).to_bytes(4, "big") + raw
                + abe[4 + header_len:], data)


def off_subgroup_g1(group) -> bytes:
    """A compressed curve point outside the order-r subgroup."""
    for x in range(2, 500):
        point = group.curve.lift_x(x)
        if point is None or group.curve.mul(point, group.order) is INFINITY:
            continue
        return bytes([2 + (point[1] & 1)]) + group.field.to_bytes(x)
    pytest.fail("no out-of-subgroup x found")  # pragma: no cover


def with_bad_c_prime(group, component: StoredComponent) -> bytes:
    """The component's wire bytes with ``C'`` swapped for a point off
    the order-r subgroup (framing and lengths still valid)."""
    name, abe, data = unpack3(component.to_bytes())
    start = 4 + int.from_bytes(abe[:4], "big") + group.gt_bytes
    abe = abe[:start] + off_subgroup_g1(group) + abe[start + group.g1_bytes:]
    return pack(name, abe, data)


class DecodeSpy:
    """Counts element decodes on one group instance, by checkedness."""

    def __init__(self, monkeypatch, group):
        self.calls = []
        for name in ("decode_g1", "decode_gt"):
            real = getattr(PairingGroup, name)

            def spy(this, data, *, check_subgroup=True, _real=real,
                    _name=name):
                if this is group:
                    self.calls.append((_name, check_subgroup))
                return _real(this, data, check_subgroup=check_subgroup)

            monkeypatch.setattr(PairingGroup, name, spy)

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


def element_count(component: StoredComponent) -> int:
    return 2 + component.abe_ciphertext.n_rows  # C, C', one C_i per row


async def connect(group, service, role, name) -> ServiceConnection:
    return await ServiceConnection(group, service.host, service.port,
                                   role=role, name=name).connect()


async def owner_with_record(scenario, service) -> OwnerClient:
    owner = OwnerClient(
        await connect(scenario.group, service, "owner", "owner:alice"),
        scenario.owner_core,
    )
    await owner.upload("r", COMPONENTS)
    return owner


async def fetch_component_raw(connection, record_id, name) -> bytes:
    _, body = await connection.request(
        MessageType.FETCH_COMPONENT,
        protocol.encode_json({"record": record_id, "component": name}),
        expect=MessageType.COMPONENT,
    )
    return body


async def replace_component_raw(connection, record_id, encoded) -> None:
    await connection.request(
        MessageType.REPLACE_COMPONENT,
        protocol.pack_parts(protocol.encode_json({"record": record_id}),
                            encoded),
        expect=MessageType.OK,
    )


def decoded_index(store: RecordStore) -> dict:
    """The ciphertext index a full checked decode of every record gives."""
    index = {}
    for record_id in store.record_ids():
        record = StoredRecord.from_bytes(store.group,
                                         store.get_record_bytes(record_id))
        for name, component in record.components.items():
            index[component.abe_ciphertext.ciphertext_id] = (record_id, name)
    return index


def store_index(store: RecordStore) -> dict:
    return {ciphertext_id: store.locate_ciphertext(ciphertext_id)
            for ciphertext_id in store.ciphertext_ids()}


# -- the codec: framing scan and splice ---------------------------------------

def test_scan_matches_a_full_decode(group, scenario):
    record = scenario.make_record("r", COMPONENTS)
    blob = record.to_bytes()
    frame = scan_record(blob)
    assert (frame.record_id, frame.owner_id) == ("r", "alice")
    assert list(frame.components) == sorted(COMPONENTS)
    for name, component in record.components.items():
        slot = frame.component(name)
        assert slot.encoded == component.to_bytes()
        assert slot.ciphertext_id == component.abe_ciphertext.ciphertext_id
        assert slot.payload_size == component.payload_size_bytes(group)
    assert frame.payload_size_bytes() == record.payload_size_bytes(group)
    with pytest.raises(StorageError):
        frame.component("ghost")


def test_splice_equals_with_component_re_encode(scenario):
    record = scenario.make_record("r", COMPONENTS)
    blob = record.to_bytes()
    frame = scan_record(blob)
    for name in COMPONENTS:
        fresh = scenario.make_record(
            "r-v2", {name: (b"replacement " + name.encode(), "hospital:nurse")}
        ).components[name]
        spliced = splice_component(blob, frame.component(name),
                                   fresh.to_bytes())
        assert spliced == record.with_component(fresh).to_bytes()


def test_duplicate_component_names_are_refused(scenario):
    record = scenario.make_record("r")
    encoded = record.components["note"].to_bytes()
    blob = (pack(b"r", b"alice") + (2).to_bytes(4, "big")
            + pack(encoded) + pack(encoded))
    with pytest.raises(StorageError):
        scan_record(blob)
    with pytest.raises(StorageError):
        StoredRecord.from_bytes(scenario.group, blob)


def test_every_truncation_of_a_record_is_a_storage_error(scenario):
    blob = scenario.make_record("r", COMPONENTS).to_bytes()
    for cut in range(len(blob)):
        with pytest.raises(StorageError):
            scan_record(blob[:cut])
    with pytest.raises(StorageError):
        scan_record(blob + b"\x00")


@given(data=st.binary(max_size=400))
def test_garbage_scans_raise_only_storage_error(data):
    try:
        scan_record(data)
    except StorageError:
        pass


@given(position=st.integers(min_value=0), value=st.integers(0, 255))
def test_corrupted_records_scan_or_raise_storage_error(group, position,
                                                      value):
    blob = bytearray(Scenario(group).make_record("r", COMPONENTS).to_bytes())
    blob[position % len(blob)] = value
    try:
        scan_record(bytes(blob))
    except StorageError:
        pass


# -- the store ----------------------------------------------------------------

def test_storage_bytes_equals_the_decoded_sum(group, scenario, store_root):
    store = RecordStore(store_root, group)
    for record_id in ("a", "b", "c"):
        store.put(scenario.make_record(record_id, COMPONENTS))
    store.put(scenario.make_record("single"))
    decoded = sum(
        StoredRecord.from_bytes(group, store.get_record_bytes(record_id))
        .payload_size_bytes(group)
        for record_id in store.record_ids()
    )
    assert store.storage_bytes() == decoded


def test_reopen_index_equals_the_decoded_index(group, scenario, store_root):
    store = RecordStore(store_root, group)
    for record_id in ("a", "b", "c"):
        store.put(scenario.make_record(record_id, COMPONENTS))
    store.replace_component("b", scenario.make_record(
        "b-v2", {"plan": (b"new plan", "hospital:nurse")}
    ).components["plan"])
    store.delete("c")
    assert store_index(store) == decoded_index(store)

    reopened = RecordStore(store_root, group)
    assert store_index(reopened) == decoded_index(reopened)
    assert store_index(reopened) == store_index(store)
    assert reopened.check()["ok"]


def test_replace_component_of_an_unknown_name_changes_nothing(group, scenario,
                                                              store_root):
    store = RecordStore(store_root, group)
    digest = store.put(scenario.make_record("r"))
    stray = scenario.make_record("r", {"ghost": (b"x", "hospital:doctor")})
    with pytest.raises(StorageError):
        store.replace_component("r", stray.components["ghost"])
    assert store.digest("r") == digest
    assert store.ciphertext_ids() == frozenset({"r/note"})


# -- the server: byte identity ------------------------------------------------

def test_fetch_component_serves_the_stored_slice(group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await owner_with_record(scenario, service)
        try:
            stored = service.store.get("r")
            for name in COMPONENTS:
                body = await fetch_component_raw(owner.connection, "r", name)
                assert body == stored.component(name).to_bytes()
        finally:
            await owner.close()
            await service.stop()

    run(flow())


@pytest.mark.parametrize("canonical", [True, False])
def test_replace_splice_is_digest_identical_to_a_re_encode(
        group, scenario, store_root, canonical):
    async def flow():
        service = await start_service(group, store_root)
        owner = await owner_with_record(scenario, service)
        try:
            before = service.store.get("r")
            fresh = scenario.make_record(
                "r-v2", {"plan": (b"new plan", "hospital:nurse")}
            ).components["plan"]
            wire = fresh.to_bytes() if canonical else noncanonical(fresh)
            assert StoredComponent.from_bytes(group, wire) == fresh
            assert (wire == fresh.to_bytes()) is canonical
            await replace_component_raw(owner.connection, "r", wire)
            expected = before.with_component(fresh).to_bytes()
            assert service.store.digest("r") == (
                hashlib.sha256(expected).hexdigest()
            )
            assert service.store.get_record_bytes("r") == expected
            assert service.store.locate_ciphertext("r-v2/plan") == (
                "r", "plan"
            )
            with pytest.raises(StorageError):
                service.store.locate_ciphertext("r/plan")
        finally:
            await owner.close()
            await service.stop()

    run(flow())


# -- the server: the hot handlers decode nothing ------------------------------

def test_fetches_decode_no_element(group, scenario, store_root, monkeypatch):
    async def flow():
        service = await start_service(group, store_root)
        owner = await owner_with_record(scenario, service)
        spy = DecodeSpy(monkeypatch, service.group)
        try:
            for name in COMPONENTS:
                await fetch_component_raw(owner.connection, "r", name)
            assert spy.take() == []
            _, body = await owner.connection.request(
                MessageType.FETCH_RECORD,
                protocol.encode_json({"record": "r"}),
                expect=MessageType.RECORD,
            )
            assert body == service.store.get_record_bytes("r")
            assert spy.take() == []
        finally:
            await owner.close()
            await service.stop()

    run(flow())


def test_replace_component_checks_the_incoming_component_once(
        group, scenario, store_root, monkeypatch):
    async def flow():
        service = await start_service(group, store_root)
        owner = await owner_with_record(scenario, service)
        spy = DecodeSpy(monkeypatch, service.group)
        try:
            fresh = scenario.make_record(
                "r-v2", {"xray": (b"new", "hospital:doctor OR hospital:nurse")}
            ).components["xray"]
            await replace_component_raw(owner.connection, "r",
                                        fresh.to_bytes())
            calls = spy.take()
            assert len(calls) == element_count(fresh)
            assert all(checked for _, checked in calls)
        finally:
            await owner.close()
            await service.stop()

    run(flow())


def test_transform_fetch_decodes_one_component_trusted(group, scenario,
                                                       store_root,
                                                       monkeypatch):
    async def flow():
        service = await start_service(group, store_root)
        owner = await owner_with_record(scenario, service)
        bob = UserClient(
            await connect(PairingGroup(group.params, seed="client:bob"),
                          service, "user", "user:bob"),
            "bob",
        )
        bob.receive_public_key(scenario.bob_pk)
        bob.receive_secret_key(scenario.bob_sk)
        try:
            await bob.register_transform_key("alice")
            spy = DecodeSpy(monkeypatch, service.group)
            assert await bob.read_outsourced("r", "note") == (
                COMPONENTS["note"][0]
            )
            calls = spy.take()
            note = service.store.get("r").component("note")
            assert len(calls) == element_count(note)
            assert not any(checked for _, checked in calls)
        finally:
            await bob.close()
            await owner.close()
            await service.stop()

    run(flow())


# -- the server: hostile input is still refused at the wire -------------------

def test_off_subgroup_replace_is_refused_and_changes_nothing(
        group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await owner_with_record(scenario, service)
        try:
            digest = service.store.digest("r")
            index = store_index(service.store)
            fresh = scenario.make_record(
                "r-v2", {"note": (b"evil", "hospital:doctor")}
            ).components["note"]
            with pytest.raises(MathError):
                await replace_component_raw(
                    owner.connection, "r", with_bad_c_prime(group, fresh)
                )
            assert service.store.digest("r") == digest
            assert store_index(service.store) == index
            assert service.store.check()["ok"]
        finally:
            await owner.close()
            await service.stop()

    run(flow())


def test_off_subgroup_store_record_is_refused_and_stores_nothing(
        group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root)
        owner = await owner_with_record(scenario, service)
        try:
            record = scenario.make_record("evil")
            bad = with_bad_c_prime(group, record.components["note"])
            blob = (pack(b"evil", b"alice") + (1).to_bytes(4, "big")
                    + pack(bad))
            with pytest.raises(MathError):
                await owner.connection.request(
                    MessageType.STORE_RECORD, blob, expect=MessageType.OK
                )
            assert service.store.record_ids() == ["r"]
            assert "evil/note" not in service.store.ciphertext_ids()
            assert service.store.check()["ok"]
        finally:
            await owner.close()
            await service.stop()

    run(flow())
