"""REENCRYPT_SWEEP over real sockets: one request re-encrypts a whole
store, streams progress, survives chaos, and never starves the loop."""

import asyncio
import io
import time

import pytest

import repro.service.server as server_module
from repro.core.revocation import rekey_standard
from repro.core.serialize import encode_update_info, encode_update_key
from repro.ec.params import TOY80
from repro.service import protocol
from repro.service.client import BaseClient, OwnerClient, ServiceConnection
from repro.service.faults import ChaosProxy
from repro.service.protocol import MessageType
from repro.service.retry import RetryPolicy
from repro.service.server import StorageService
from repro.service.smoke import run_sweep_cycle
from repro.service.store import RecordStore

from .conftest import run, start_service


async def connect(scenario, host, port, role, name, *, retry=None,
                  timeout=5.0) -> ServiceConnection:
    conn = ServiceConnection(scenario.group, host, port, role=role,
                             name=name, retry=retry, timeout=timeout)
    return await conn.connect()


async def make_owner(scenario, host, port, **kwargs) -> OwnerClient:
    return OwnerClient(
        await connect(scenario, host, port, "owner", "owner:alice",
                      **kwargs),
        scenario.owner_core,
    )


async def populate(owner_client, count) -> list:
    ids = []
    for index in range(count):
        record_id = f"rec-{index:03d}"
        await owner_client.upload(record_id, {
            "note": (f"body {index}".encode("utf-8"), "hospital:doctor"),
        })
        ids.append(f"{record_id}/note")
    return ids


def revoke_bob(scenario):
    return rekey_standard(scenario.aa, "bob", ["doctor"]).update_key


# -- the full cycle, inline and through a real process pool -------------------

@pytest.mark.parametrize("workers", [0, 2])
def test_sweep_cycle_over_a_real_socket(group, store_root, workers):
    async def scenario():
        service = await start_service(group, store_root, workers=workers,
                                      sweep_chunk=3)
        out = io.StringIO()
        try:
            rc = await run_sweep_cycle(TOY80, service.host, service.port,
                                       out=out, seed=7, records=7)
        finally:
            await service.stop()
        return rc, out.getvalue()

    rc, transcript = run(scenario())
    assert rc == 0, transcript
    assert "sweep cycle passed" in transcript
    assert "sweep progress" in transcript


# -- one request, whole store -------------------------------------------------

def test_sweep_updates_every_record_and_streams_progress(
        group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        owner = await make_owner(scenario, service.host, service.port)
        try:
            ciphertext_ids = await populate(owner, 5)
            update_key = revoke_bob(scenario)
            frames = []
            summary = await owner.sweep_revocation(
                update_key, on_progress=frames.append
            )
            component = await owner._fetch_component("rec-000", "note")
            repeat = await owner.sweep_revocation(update_key)
        finally:
            await owner.close()
            await service.stop()
        return ciphertext_ids, summary, frames, component, repeat

    ciphertext_ids, summary, frames, component, repeat = run(flow())
    assert sorted(summary["updated"]) == ciphertext_ids
    assert summary["records"] == 5
    assert summary["requested"] == 5
    assert not summary["errors"] and not summary["missing"]
    # chunk=2 over 5 records -> 3 progress frames, cumulative counters.
    assert [f["done"] for f in frames] == [2, 4, 5]
    assert frames[-1]["updated"] == 5
    assert component.abe_ciphertext.version_of("hospital") == 1
    # The owner's ledger advanced, so a replayed sweep ships nothing.
    assert repeat["requested"] == 0 and repeat["updated"] == []


# -- chaos: a dropped progress frame mid-stream -------------------------------

def test_sweep_survives_dropped_progress_frame(group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root, sweep_chunk=2)
        proxy = await ChaosProxy(service.host, service.port).start()
        retry = RetryPolicy(max_attempts=6, base_delay=0.01,
                            max_delay=0.05)
        owner = await make_owner(scenario, proxy.host, proxy.port,
                                 retry=retry)
        try:
            ciphertext_ids = await populate(owner, 4)
            update_key = revoke_bob(scenario)
            # The very next reply frame is the sweep's first progress
            # frame; sever the connection right there.
            proxy.schedule[proxy._reply_counter] = "drop"
            frames = []
            summary = await owner.sweep_revocation(
                update_key, on_progress=frames.append
            )
            stats = await owner.stats()
        finally:
            await owner.close()
            await proxy.stop()
            await service.stop()
        return ciphertext_ids, summary, proxy.injected, stats

    ciphertext_ids, summary, injected, stats = run(flow())
    assert [f["fault"] for f in injected] == ["drop"]
    assert injected[0]["frame_type"] == MessageType.SWEEP_PROGRESS
    # The retried sweep hit the idempotency table: the server replayed
    # its cached SWEEP_DONE instead of re-running the re-encryption.
    assert sorted(summary["updated"]) == ciphertext_ids
    assert stats["dedup_hits"] >= 1


# -- regression: the loop must keep answering during a sweep ------------------

def test_ping_answers_while_a_sweep_is_running(group, scenario, store_root):
    async def flow():
        service = await start_service(group, store_root, sweep_chunk=1)
        owner = await make_owner(scenario, service.host, service.port)
        pinger = BaseClient(
            await connect(scenario, service.host, service.port,
                          "user", "user:ping")
        )
        loop = asyncio.get_running_loop()
        try:
            await populate(owner, 10)
            update_key = revoke_bob(scenario)
            started = asyncio.Event()
            sweep = asyncio.ensure_future(owner.sweep_revocation(
                update_key, on_progress=lambda frame: started.set()
            ))
            await asyncio.wait_for(started.wait(), 30)
            latencies = []
            while not sweep.done():
                begin = loop.time()
                assert await pinger.ping()
                latencies.append(loop.time() - begin)
            summary = await sweep
        finally:
            await pinger.close()
            await owner.close()
            await service.stop()
        return summary, latencies

    summary, latencies = run(flow())
    assert len(summary["updated"]) == 10
    # At least one ping completed while the sweep was still in flight,
    # and none of them waited for the crypto to finish.
    assert latencies, "sweep finished before a single concurrent ping"
    assert max(latencies) < 2.0




# -- regression: a read waits behind at most one sweep chunk leg --------------

def test_fetch_waits_for_at_most_one_sweep_leg(group, scenario, store_root,
                                               monkeypatch):
    """The sweep window admits one chunk at a time on the inline pool, so
    a FETCH_RECORD queued on the offload thread mid-sweep waits behind
    at most the leg already running, not the rest of the sweep."""
    real = server_module.reencrypt_records_raw
    legs_done = []

    async def flow():
        loop = asyncio.get_running_loop()
        started = asyncio.Event()

        def spy(*args):
            loop.call_soon_threadsafe(started.set)
            time.sleep(0.05)
            result = real(*args)
            legs_done.append(True)
            return result

        monkeypatch.setattr(server_module, "reencrypt_records_raw", spy)
        service = await start_service(group, store_root, sweep_chunk=1)
        owner = await make_owner(scenario, service.host, service.port)
        reader = await connect(scenario, service.host, service.port,
                               "user", "user:carol")
        try:
            await populate(owner, 10)
            sweep = asyncio.ensure_future(
                owner.sweep_revocation(revoke_bob(scenario))
            )
            await asyncio.wait_for(started.wait(), 30)
            before = len(legs_done)
            await reader.request(
                MessageType.FETCH_RECORD,
                protocol.encode_json({"record": "rec-009"}),
                expect=MessageType.RECORD,
            )
            after = len(legs_done)
            summary = await asyncio.wait_for(sweep, 60)
        finally:
            await reader.close()
            await owner.close()
            await service.stop()
        return before, after, summary

    before, after, summary = run(flow())
    assert len(summary["updated"]) == 10
    assert before < 10, "the sweep finished before the fetch was sent"
    assert after - before <= 1, (before, after)


# -- byte identity: the window does not change what the sweep writes ----------

def test_pooled_windowed_sweep_matches_inline_bytes(group, scenario,
                                                    tmp_path):
    """The same store swept inline and through a two-worker pool with
    one-record chunks ends with identical digests and blobs."""
    records = [
        scenario.make_record(f"rec-{index:02d}", {
            "note": (f"note {index}".encode("utf-8"), "hospital:doctor"),
            "plan": (b"plan", "hospital:doctor OR hospital:nurse"),
        })
        for index in range(5)
    ]
    update_key = revoke_bob(scenario)
    ciphertext_ids = sorted(scenario.owner_core.records_involving("hospital"))
    ui_raws = [
        encode_update_info(scenario.owner_core.update_info_for_record(
            ciphertext_id, update_key
        ))
        for ciphertext_id in ciphertext_ids
    ]
    body = protocol.pack_parts(
        protocol.encode_json({"n": len(ui_raws)}),
        encode_update_key(group, update_key),
        *ui_raws,
    )

    async def sweep(root, **kwargs):
        store = RecordStore(root, group)
        for record in records:
            store.put(record)
        service = StorageService(group, store, **kwargs)
        await service.start()
        conn = await connect(scenario, service.host, service.port, "owner",
                             "owner:alice")
        try:
            reply = await conn.request_stream(
                MessageType.REENCRYPT_SWEEP, body,
                final=MessageType.SWEEP_DONE,
                progress=MessageType.SWEEP_PROGRESS,
            )
        finally:
            await conn.close()
            await service.stop()
        state = {record_id: (store.digest(record_id),
                             store.get_record_bytes(record_id))
                 for record_id in store.record_ids()}
        return protocol.decode_json(reply), state

    inline_summary, inline_state = run(sweep(tmp_path / "inline"))
    pooled_summary, pooled_state = run(sweep(tmp_path / "pooled", workers=2,
                                             sweep_chunk=1))
    assert inline_summary["updated"] == ciphertext_ids
    assert pooled_summary == inline_summary
    assert pooled_state == inline_state
    # Every record was rewritten, not left at its pre-sweep bytes.
    assert all(blob != record.to_bytes()
               for (_, blob), record in zip(inline_state.values(), records))
