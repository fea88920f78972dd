"""The sweep's record job rebuilds each record from its frame:
``reencrypt_records_raw`` output equals the whole-record decode →
``with_component`` → re-encode, byte for byte, while decoding only what
the re-key touches."""

import json

import pytest

from repro.core.reencrypt import reencrypt
from repro.core.revocation import rekey_standard
from repro.core.scheme import MultiAuthorityABE
from repro.core.serialize import encode_update_info, encode_update_key
from repro.crypto.hybrid import seal
from repro.ec.params import TOY80
from repro.pairing.group import PairingGroup
from repro.parallel.batch import UPDATED, reencrypt_records_raw
from repro.system.records import StoredComponent, StoredRecord

# 2- and 3-row policies mixing the re-keyed authority (hospital) with one
# it leaves alone (insurer), so some rows are re-keyed and some copied.
POLICIES = {
    "note": "hospital:doctor AND insurer:agent",
    "plan": "hospital:doctor AND hospital:nurse AND insurer:agent",
    "xray": "insurer:agent OR hospital:nurse",
}


class World:
    def __init__(self):
        self.scheme = MultiAuthorityABE(TOY80, seed=0x5B1C)
        self.hospital = self.scheme.setup_authority("hospital",
                                                    ["doctor", "nurse"])
        self.insurer = self.scheme.setup_authority("insurer", ["agent"])
        self.owner = self.scheme.setup_owner("alice")
        self.records = {
            "single": self.record("single", ["note"]),
            "triple": self.record("triple", ["plan"]),
            "multi": self.record("multi", sorted(POLICIES)),
        }
        victim = self.scheme.register_user("victim")
        self.hospital.keygen(victim, ["doctor", "nurse"], "alice")
        self.update_key = rekey_standard(self.hospital, "victim",
                                         ["doctor"]).update_key
        self.uk_raw = encode_update_key(self.group, self.update_key)

    @property
    def group(self):
        return self.scheme.group

    def record(self, record_id, names) -> StoredRecord:
        components = {}
        for name in names:
            ciphertext_id = f"{record_id}/{name}"
            session = self.scheme.random_message()
            components[name] = StoredComponent(
                name=name,
                abe_ciphertext=self.owner.encrypt(
                    session, POLICIES[name], ciphertext_id=ciphertext_id
                ),
                data_ciphertext=seal(session, ciphertext_id,
                                     f"{ciphertext_id} body".encode()),
            )
        return StoredRecord(record_id=record_id, owner_id="alice",
                            components=components)

    def update_info(self, record, name):
        return self.owner.update_info(
            record.components[name].abe_ciphertext, self.update_key
        )

    def expected(self, record, names) -> bytes:
        """Today's reference: decode whole, re-encrypt, re-encode whole."""
        for name in names:
            component = record.components[name]
            record = record.with_component(StoredComponent(
                name=name,
                abe_ciphertext=reencrypt(
                    self.group, component.abe_ciphertext, self.update_key,
                    self.update_info(record, name),
                ),
                data_ciphertext=component.data_ciphertext,
            ))
        return record.to_bytes()

    def sweep(self, blob, record, names) -> tuple:
        [(new_blob, results)] = reencrypt_records_raw(
            self.group, self.uk_raw,
            [(blob, [(name, encode_update_info(self.update_info(record,
                                                                name)))
                     for name in names])],
        )
        return new_blob, results


@pytest.fixture(scope="module")
def world():
    return World()


def refuse_whole_decode(monkeypatch):
    """Fail the test if the job decodes a record whole."""
    def refuse(*args, **kwargs):
        raise AssertionError("whole-record decode in the sweep job")

    monkeypatch.setattr(StoredRecord, "from_bytes", refuse)


@pytest.fixture()
def no_whole_decode(monkeypatch):
    refuse_whole_decode(monkeypatch)


def pack(*parts) -> bytes:
    return b"".join(len(part).to_bytes(4, "big") + part for part in parts)


def noncanonical_abe(component: StoredComponent) -> bytes:
    """The component's ABE encoding with its JSON header re-serialized
    (reversed keys, indented, no ``lsss`` field): it decodes to the same
    ciphertext but does not re-encode to these bytes."""
    abe = component.abe_ciphertext.to_bytes()
    header_len = int.from_bytes(abe[:4], "big")
    header = json.loads(abe[4:4 + header_len])
    assert header.pop("lsss") == "expand"
    raw = json.dumps(dict(reversed(list(header.items()))),
                     indent=2).encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw + abe[4 + header_len:]


def record_blob(record, abe_override=None, order=None) -> bytes:
    """``record`` encoded by hand: components in ``order`` (default:
    name order), any ``abe_override[name]`` in place of its ABE bytes."""
    abe_override = abe_override or {}
    encoded = []
    for name in order or sorted(record.components):
        component = record.components[name]
        encoded.append(pack(
            name.encode("utf-8"),
            abe_override.get(name, component.abe_ciphertext.to_bytes()),
            component.data_ciphertext.to_bytes(),
        ))
    return (pack(record.record_id.encode(), record.owner_id.encode())
            + len(encoded).to_bytes(4, "big") + pack(*encoded))


@pytest.mark.parametrize("record_id, names", [
    ("single", ["note"]),          # 2 rows, one re-keyed
    ("triple", ["plan"]),          # 3 rows, two re-keyed
    ("multi", ["plan"]),           # one component of three
    ("multi", ["note", "xray"]),   # two components of one record
    ("multi", sorted(POLICIES)),   # every component
])
def test_rewrite_equals_whole_record_re_encode(world, no_whole_decode,
                                              record_id, names):
    record = world.records[record_id]
    blob = record.to_bytes()
    new_blob, results = world.sweep(blob, record, names)
    assert new_blob == world.expected(record, names)
    assert [status for _, status, _, _ in results] == [UPDATED] * len(names)
    assert [ciphertext_id for ciphertext_id, _, _, _ in results] \
        == [f"{record_id}/{name}" for name in names]


def test_non_canonical_target_header_is_re_encoded(world, no_whole_decode):
    record = world.records["multi"]
    blob = record_blob(record, {
        "plan": noncanonical_abe(record.components["plan"]),
    })
    assert blob != record.to_bytes()
    new_blob, _ = world.sweep(blob, record, ["plan"])
    assert new_blob == world.expected(record, ["plan"])


@pytest.mark.parametrize("blob_of", [
    # an untouched component with a non-canonical header
    lambda record: record_blob(record, {
        "xray": noncanonical_abe(record.components["xray"]),
    }),
    # components out of name order
    lambda record: record_blob(record, order=["xray", "plan", "note"]),
])
def test_non_canonical_record_is_normalized(world, monkeypatch, blob_of):
    """A record stored in another encoding (a repair keeps the bytes it
    was sent) comes out exactly as the whole re-encode writes it."""
    record = world.records["multi"]
    blob = blob_of(record)
    assert blob != record.to_bytes()
    assert StoredRecord.from_bytes(world.group, blob) == record
    refuse_whole_decode(monkeypatch)
    new_blob, _ = world.sweep(blob, record, ["plan"])
    assert new_blob == world.expected(record, ["plan"])


def test_only_re_keyed_rows_are_decoded(world, monkeypatch):
    """C' and the hospital rows are lifted; the insurer row is not."""
    record = world.records["triple"]
    ciphertext = record.components["plan"].abe_ciphertext
    real = PairingGroup.decode_g1
    lifted = []

    def spy(group, data, *, check_subgroup=True):
        lifted.append(bytes(data))
        return real(group, data, check_subgroup=check_subgroup)

    monkeypatch.setattr(PairingGroup, "decode_g1", spy)
    world.sweep(record.to_bytes(), record, ["plan"])
    rows = dict(zip(ciphertext.matrix.row_labels, ciphertext.c_rows))
    assert ciphertext.c_prime.to_bytes() in lifted
    assert rows["hospital:doctor"].to_bytes() in lifted
    assert rows["hospital:nurse"].to_bytes() in lifted
    assert rows["insurer:agent"].to_bytes() not in lifted
