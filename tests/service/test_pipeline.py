"""Pipelined dispatch: correlation, ordering, and the window of one.

A connection multiplexes up to ``max_inflight`` requests; every reply
must land on *its* request by sequence number,
no matter how ChaosProxy reorders, delays or duplicates frames on the
wire. These are the seq-mismatch regression tests: a reply delivered
to the wrong caller would hand one record's bytes to another record's
reader, which is exactly the failure byte-identity gating in
``benchmarks/bench_service_load.py`` exists to catch.
"""

import asyncio
import random

import pytest

from repro.core.revocation import rekey_standard
from repro.errors import ProtocolError
from repro.service import protocol
from repro.service.client import BaseClient, OwnerClient, ServiceConnection
from repro.service.faults import ChaosProxy, FaultSpec
from repro.service.protocol import MessageType
from repro.system.records import StoredRecord

from .conftest import Scenario, run, start_service
from .test_faults import quick_retry


def _pipelined_connection(group, host, port, *, max_inflight=8,
                          retry=None, timeout=2.0):
    return ServiceConnection(group, host, port, role="owner",
                             name="owner:alice", retry=retry,
                             timeout=timeout, max_inflight=max_inflight)


async def _upload_pool(owner, count):
    for index in range(count):
        await owner.upload(f"rec-{index}",
                           {"note": (f"body-{index}".encode(),
                                     "hospital:doctor")})


def test_interleaved_requests_correlate_by_seq(group, scenario, store_root):
    """Many concurrent fetches over ONE pipelined connection: each
    caller gets exactly the record it asked for."""
    async def body():
        service = await start_service(group, store_root)
        conn = _pipelined_connection(group, service.host, service.port)
        await conn.connect()
        assert conn.version == 2
        owner = OwnerClient(conn, scenario.owner_core)
        try:
            await _upload_pool(owner, 6)
            order = [index % 6 for index in range(24)]
            random.Random(7).shuffle(order)

            async def fetch(index):
                _, reply = await conn.request(
                    MessageType.FETCH_RECORD,
                    protocol.encode_json({"record": f"rec-{index}"}),
                    expect=MessageType.RECORD,
                )
                return index, StoredRecord.from_bytes(group, reply)

            results = await asyncio.gather(
                *(fetch(index) for index in order), owner.ping()
            )
            for index, record in results[:-1]:
                assert record.record_id == f"rec-{index}"
            assert results[-1] is True
        finally:
            await owner.close()
            await service.stop()

    run(body())


def test_reorder_and_delay_never_miscorrelate(group, scenario, store_root):
    """ChaosProxy reorders and delays RECORD replies on a pipelined
    connection; correlation is by seq, so nobody gets the wrong bytes."""
    async def body():
        service = await start_service(group, store_root)
        proxy = ChaosProxy(
            service.host, service.port,
            spec=FaultSpec(delay_seconds=0.1),
            type_schedule={
                int(MessageType.RECORD): ["reorder", "delay", "reorder"],
            },
        )
        await proxy.start()
        conn = _pipelined_connection(group, proxy.host, proxy.port)
        owner = OwnerClient(await conn.connect(), scenario.owner_core)
        try:
            await _upload_pool(owner, 8)

            async def fetch(index):
                record = await owner.fetch_record(f"rec-{index}")
                return index, record

            results = await asyncio.gather(*(fetch(i) for i in range(8)))
            for index, record in results:
                assert record.record_id == f"rec-{index}"
            assert proxy.fault_counts() == {"reorder": 2, "delay": 1}
        finally:
            await owner.close()
            await proxy.stop()
            await service.stop()

    run(body())


def test_duplicate_reply_is_discarded_not_miscorrelated(group, store_root):
    """A duplicated PONG arrives under an already-answered seq: the
    reader discards it (and logs the discard) instead of delivering it
    to whoever asks next."""
    async def body():
        service = await start_service(group, store_root)
        proxy = ChaosProxy(service.host, service.port,
                           type_schedule={int(MessageType.PONG):
                                          ["duplicate"]})
        await proxy.start()
        conn = _pipelined_connection(group, proxy.host, proxy.port)
        client = BaseClient(await conn.connect())
        try:
            assert await client.ping()
            await asyncio.sleep(0.05)  # let the duplicate frame arrive
            discards = conn.retry_log.events("discard")
            assert len(discards) == 1
            assert "unmatched reply seq" in discards[0]["cause"]
            # The connection is still healthy and still correlates.
            assert await client.ping()
            assert (await client.health())["status"] in ("ok", "degraded")
        finally:
            await client.close()
            await proxy.stop()
            await service.stop()

    run(body())


def test_retried_mutation_lands_after_sibling_reply(group, scenario,
                                                    store_root):
    """The nasty interleaving: a STORE_RECORD's OK is withheld, its
    sibling fetch completes first on the SAME still-open connection,
    then the timed-out mutation retries under a fresh seq and the same
    idempotency key — applied exactly once, never mis-correlated."""
    async def body():
        service = await start_service(group, store_root)
        # Populate the sibling's record over a DIRECT connection, so
        # the first OK crossing the proxy is the store under test.
        setup_conn = _pipelined_connection(group, service.host,
                                           service.port)
        setup_owner = OwnerClient(await setup_conn.connect(),
                                  scenario.owner_core)
        await _upload_pool(setup_owner, 1)
        await setup_owner.close()
        proxy = ChaosProxy(service.host, service.port,
                           type_schedule={int(MessageType.OK):
                                          ["withhold"]})
        await proxy.start()
        conn = _pipelined_connection(group, proxy.host, proxy.port,
                                     retry=quick_retry(), timeout=0.3)
        owner = OwnerClient(await conn.connect(), scenario.owner_core)
        reader_task = conn._reader_task
        finished = []
        try:
            async def store():
                await owner.upload("r", {"note": (b"exactly once",
                                                  "hospital:doctor")})
                finished.append("store")

            async def sibling():
                record = await owner.fetch_record("rec-0")
                assert record.record_id == "rec-0"
                finished.append("fetch")

            await asyncio.gather(store(), sibling())
            # The sibling's reply landed while the mutation was still
            # waiting out its withheld OK; the retry resolved it later.
            assert finished == ["fetch", "store"]
            retried = [e["request"] for e in conn.retry_log.events("retry")]
            assert "STORE_RECORD" in retried
            # Same connection throughout: the reader never restarted.
            assert conn._reader_task is reader_task
        finally:
            await owner.close()
            await proxy.stop()
            await service.stop()
        return service, proxy

    service, proxy = run(body())
    assert {f["fault"] for f in proxy.injected} == {"withhold"}
    assert sorted(service.store.record_ids()) == ["r", "rec-0"]
    assert service.dedup.hits == 1  # the retry was a replay, not a re-apply


def test_cheap_request_is_not_stuck_behind_slow_sweep(group, scenario,
                                                      store_root):
    """Server-side pipelining: while a REENCRYPT_SWEEP grinds through
    its chunks, a PING on the same session is answered immediately."""
    async def body():
        service = await start_service(group, store_root, sweep_chunk=1)
        conn = _pipelined_connection(group, service.host, service.port,
                                     timeout=30.0)
        owner = OwnerClient(await conn.connect(), scenario.owner_core)
        try:
            await _upload_pool(owner, 12)
            started = asyncio.Event()
            result = rekey_standard(scenario.aa, "bob", ["doctor"])

            sweep_task = asyncio.ensure_future(owner.sweep_revocation(
                result.update_key,
                on_progress=lambda payload: started.set(),
            ))
            await started.wait()  # first chunk done, many more to go
            assert await owner.ping()
            pinged_mid_sweep = not sweep_task.done()
            summary = await sweep_task
            assert len(summary["updated"]) == 12
            return pinged_mid_sweep
        finally:
            await owner.close()
            await service.stop()

    assert run(body())


def test_v1_only_hello_gets_typed_error_and_close(group, store_root):
    """A peer offering only protocol version 1 is refused with a typed
    ERROR frame, then the server closes the session."""
    async def body():
        service = await start_service(group, store_root)
        reader, writer = await asyncio.open_connection(
            service.host, service.port
        )
        try:
            await protocol.write_frame(
                writer, MessageType.HELLO,
                protocol.hello_body(service.preset, "owner", "old-peer",
                                    versions=(1,)),
            )
            msg_type, frame_body = await protocol.read_frame(reader)
            assert msg_type is MessageType.ERROR
            with pytest.raises(ProtocolError,
                               match="no common protocol version"):
                protocol.raise_error(frame_body)
            # The session is over: EOF follows the ERROR.
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            assert service.connection_count == 0
        finally:
            writer.close()
            await service.stop()

    run(body())


def _peak_dispatch(group, store_root, server_inflight):
    """Drive concurrent PINGs and FETCH_RECORDs from one ``max_inflight=8``
    client; return how many ``_dispatch`` calls the server ever ran at
    once. Every reply is checked against its own request."""
    async def body():
        service = await start_service(group, store_root,
                                      max_inflight=server_inflight)
        real_dispatch = service._dispatch
        live = {"now": 0, "peak": 0, "calls": 0}

        async def spy(*args):
            live["now"] += 1
            live["calls"] += 1
            live["peak"] = max(live["peak"], live["now"])
            try:
                # Hold every dispatch open a moment, so any request the
                # window lets through meanwhile is seen overlapping.
                await asyncio.sleep(0.01)
                return await real_dispatch(*args)
            finally:
                live["now"] -= 1

        service._dispatch = spy
        conn = _pipelined_connection(group, service.host, service.port)
        owner = OwnerClient(await conn.connect(), Scenario(group).owner_core)
        try:
            await _upload_pool(owner, 4)

            async def fetch(index):
                _, reply = await conn.request(
                    MessageType.FETCH_RECORD,
                    protocol.encode_json({"record": f"rec-{index}"}),
                    expect=MessageType.RECORD,
                )
                return StoredRecord.from_bytes(group, reply).record_id

            async def ping(index):
                _, reply = await conn.request(
                    MessageType.PING, b"ping-%d" % index,
                    expect=MessageType.PONG,
                )
                return reply

            calls_before = live["calls"]
            results = await asyncio.gather(*(
                fetch(index % 4) if index % 2 else ping(index)
                for index in range(16)
            ))
            for index, result in enumerate(results):
                assert result == (f"rec-{index % 4}" if index % 2
                                  else b"ping-%d" % index)
            assert live["calls"] - calls_before == 16
        finally:
            await owner.close()
            await service.stop()
        return live["peak"]

    return run(body())


def test_window_of_one_server_serves_one_request_at_a_time(group, tmp_path):
    """``StorageService(max_inflight=1)`` is the same session loop with a
    window of one: a pipelining client still gets every reply on its
    own request, and the server never dispatches two at once."""
    assert _peak_dispatch(group, tmp_path / "one", 1) == 1
    # Control: the same spy sees overlap once the window allows it.
    assert _peak_dispatch(group, tmp_path / "eight", 8) > 1
