"""Unit tests for the framed wire protocol."""

import asyncio

import pytest

from repro.errors import (
    AuthorizationError,
    IntegrityError,
    MathError,
    PolicyError,
    PolicyNotSatisfiedError,
    ProtocolError,
    RevocationError,
    SchemeError,
    StorageError,
)
from repro.service import protocol
from repro.service.protocol import (
    MessageType,
    code_for_exception,
    decode_frame_type,
    encode_error,
    encode_frame,
    hello_body,
    negotiate,
    pack_parts,
    read_frame,
    unpack_parts,
)

from .conftest import run


def read_framed(data: bytes, count: int = 1, **kwargs):
    """Feed raw bytes to a fresh StreamReader and read ``count`` frames."""
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = [await read_frame(reader, **kwargs) for _ in range(count)]
        return frames[0] if count == 1 else frames

    return run(scenario())


# -- framing ------------------------------------------------------------------

def test_frame_roundtrip():
    msg_type, body = read_framed(
        encode_frame(MessageType.STORE_RECORD, b"payload bytes")
    )
    assert msg_type is MessageType.STORE_RECORD
    assert body == b"payload bytes"


def test_empty_body_frame_has_length_one():
    frame = encode_frame(MessageType.PING)
    assert frame[:4] == (1).to_bytes(4, "big")
    msg_type, body = read_framed(frame)
    assert msg_type is MessageType.PING
    assert body == b""


def test_read_frame_rejects_zero_length():
    with pytest.raises(ProtocolError, match="type byte"):
        read_framed((0).to_bytes(4, "big"))


def test_read_frame_rejects_oversized_frame():
    frame = encode_frame(MessageType.PING, b"x" * 100)
    with pytest.raises(ProtocolError, match="maximum"):
        read_framed(frame, max_frame=16)


def test_encode_frame_enforces_size_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 8)
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(MessageType.PING, b"x" * 8)


def test_read_frame_rejects_unknown_type():
    frame = (2).to_bytes(4, "big") + bytes([0xEE]) + b"x"
    with pytest.raises(ProtocolError, match="unknown frame type"):
        read_framed(frame)


def test_decode_frame_type_known():
    assert decode_frame_type(0x11) is MessageType.FETCH_RECORD


def test_truncated_frame_raises_incomplete_read():
    frame = encode_frame(MessageType.RECORD, b"long body here")
    with pytest.raises(asyncio.IncompleteReadError):
        read_framed(frame[:7])


def test_two_frames_back_to_back():
    first, second = read_framed(
        encode_frame(MessageType.PING, b"a")
        + encode_frame(MessageType.PONG, b"b"),
        count=2,
    )
    assert first == (MessageType.PING, b"a")
    assert second == (MessageType.PONG, b"b")


# -- multi-part bodies --------------------------------------------------------

def test_pack_unpack_parts_roundtrip():
    parts = [b"", b"one", b"\x00" * 17]
    assert unpack_parts(pack_parts(*parts), 3) == parts


def test_unpack_parts_rejects_truncated_length_prefix():
    with pytest.raises(ProtocolError, match="truncated"):
        unpack_parts(b"\x00\x00", 1)


def test_unpack_parts_rejects_truncated_part():
    body = (10).to_bytes(4, "big") + b"short"
    with pytest.raises(ProtocolError, match="truncated"):
        unpack_parts(body, 1)


def test_unpack_parts_rejects_trailing_bytes():
    body = pack_parts(b"one") + b"extra"
    with pytest.raises(ProtocolError, match="trailing"):
        unpack_parts(body, 1)


def test_unpack_parts_rejects_missing_part():
    with pytest.raises(ProtocolError, match="truncated"):
        unpack_parts(pack_parts(b"only"), 2)


# -- JSON bodies --------------------------------------------------------------

def test_decode_json_rejects_non_object():
    with pytest.raises(ProtocolError, match="JSON object"):
        protocol.decode_json(b"[1,2]")


def test_decode_json_rejects_invalid_utf8():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        protocol.decode_json(b"\xff\xfe")


def test_json_str_rejects_missing_and_wrong_type():
    with pytest.raises(ProtocolError, match="'record'"):
        protocol.json_str({}, "record")
    with pytest.raises(ProtocolError, match="'record'"):
        protocol.json_str({"record": 7}, "record")


# -- error frames -------------------------------------------------------------

@pytest.mark.parametrize("exc, code", [
    (StorageError("x"), "storage"),
    (SchemeError("x"), "scheme"),
    # RevocationError subclasses SchemeError; must keep its own code.
    (RevocationError("x"), "revocation"),
    (PolicyError("x"), "policy"),
    (PolicyNotSatisfiedError("x"), "policy-not-satisfied"),
    (AuthorizationError("x"), "authorization"),
    (IntegrityError("x"), "integrity"),
    (MathError("x"), "math"),
    (ProtocolError("x"), "protocol"),
])
def test_error_code_roundtrip(exc, code):
    assert code_for_exception(exc) == code
    with pytest.raises(type(exc), match="boom"):
        protocol.raise_error(encode_error(type(exc)("boom")))


def test_unknown_error_code_falls_back_to_protocol_error():
    body = protocol.encode_json({"code": "from-the-future", "message": "m"})
    with pytest.raises(ProtocolError, match="m"):
        protocol.raise_error(body)


def test_error_frame_with_garbage_body():
    with pytest.raises(ProtocolError):
        protocol.raise_error(b"not json at all")


# -- hello negotiation --------------------------------------------------------

def test_negotiate_picks_highest_common_version():
    hello = protocol.decode_json(
        hello_body("TOY80", "user", "bob", versions=(1, 2, 9))
    )
    assert negotiate(hello, "TOY80", supported=(2,)) == 2


def test_negotiate_rejects_no_common_version():
    hello = protocol.decode_json(
        hello_body("TOY80", "user", "bob", versions=(1, 99))
    )
    with pytest.raises(ProtocolError, match="no common protocol version"):
        negotiate(hello, "TOY80", supported=(2,))


def test_negotiate_rejects_preset_mismatch():
    hello = protocol.decode_json(hello_body("SS512", "user", "bob"))
    with pytest.raises(ProtocolError, match="preset mismatch"):
        negotiate(hello, "TOY80")


def test_negotiate_rejects_malformed_version_list():
    for versions in ({}, "1", [True], ["1"]):
        with pytest.raises(ProtocolError, match="versions"):
            negotiate({"versions": versions, "preset": "TOY80"}, "TOY80")


# -- sequenced frames ---------------------------------------------------------

def read_seq_framed(data: bytes, **kwargs):
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_seq_frame(reader, **kwargs)

    return run(scenario())


def test_seq_frame_roundtrip():
    frame = encode_frame(MessageType.PONG, b"body", seq=7)
    msg_type, seq, body = read_seq_framed(frame)
    assert msg_type is MessageType.PONG
    assert seq == 7
    assert body == b"body"


def test_seq_frame_broadcast_sentinel_roundtrips():
    frame = encode_frame(MessageType.ERROR, b"", seq=protocol.SEQ_BROADCAST)
    _, seq, _ = read_seq_framed(frame)
    assert seq == protocol.SEQ_BROADCAST


def test_seq_frame_too_short_for_sequence():
    # An unsequenced frame (HELLO framing) read through the sequenced
    # parser must not crash with an index error but raise a typed
    # protocol error.
    with pytest.raises(ProtocolError, match="sequence"):
        read_seq_framed(encode_frame(MessageType.PING, b"ab"))


def test_seq_is_masked_to_32_bits():
    frame = encode_frame(MessageType.PING, b"", seq=0x1_0000_0003)
    _, seq, _ = read_seq_framed(frame)
    assert seq == 3


# -- idempotency envelope -----------------------------------------------------

def test_idempotency_envelope_roundtrip():
    key, inner = protocol.unwrap_idempotency(
        protocol.wrap_idempotency("abc123", b"\x00payload")
    )
    assert key == "abc123"
    assert inner == b"\x00payload"


def test_idempotency_rejects_bad_keys():
    with pytest.raises(ProtocolError, match="empty or oversized"):
        protocol.unwrap_idempotency(protocol.wrap_idempotency("", b"x"))
    with pytest.raises(ProtocolError, match="empty or oversized"):
        protocol.unwrap_idempotency(
            protocol.wrap_idempotency("k" * 201, b"x")
        )
    with pytest.raises(ProtocolError, match="UTF-8"):
        protocol.unwrap_idempotency(pack_parts(b"\xff\xfe", b"x"))


def test_idempotency_rejects_truncated_envelope():
    with pytest.raises(ProtocolError, match="truncated"):
        protocol.unwrap_idempotency(b"\x00\x00\x00\x09abc")


# -- oversized-frame draining -------------------------------------------------

def test_drain_oversized_leaves_stream_aligned():
    """With drain_oversized the declared payload is consumed, so the
    next frame on the stream is still readable after the error."""
    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame(MessageType.PING, b"x" * 100)
                         + encode_frame(MessageType.PONG, b"next"))
        reader.feed_eof()
        with pytest.raises(ProtocolError, match="maximum"):
            await read_frame(reader, 16, drain_oversized=True)
        return await read_frame(reader)

    assert run(scenario()) == (MessageType.PONG, b"next")


# -- unavailable error code ---------------------------------------------------

def test_unavailable_error_code_roundtrip():
    from repro.errors import StorageError, UnavailableError

    # UnavailableError subclasses StorageError but must keep its own
    # code so clients classify it as retryable.
    assert code_for_exception(UnavailableError("x")) == "unavailable"
    assert code_for_exception(StorageError("x")) == "storage"
    with pytest.raises(UnavailableError, match="read-only"):
        protocol.raise_error(encode_error(UnavailableError("read-only")))
