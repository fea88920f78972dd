"""Persistent blob / record store tests (satellite: store coverage).

Covers the ISSUE checklist explicitly: atomicity under interrupted
writes, LRU eviction bounds, re-opening an existing store directory,
and hash-mismatch detection on read.
"""

import hashlib
import os

import pytest

from repro.errors import StorageError
from repro.service.store import BlobStore, RecordStore
from repro.system.records import StoredRecord


# -- BlobStore basics ---------------------------------------------------------

def test_blob_put_get_roundtrip(tmp_path):
    store = BlobStore(tmp_path)
    digest = store.put(b"hello blob")
    assert digest == hashlib.sha256(b"hello blob").hexdigest()
    assert store.get(digest) == b"hello blob"
    assert store.contains(digest)


def test_blob_put_is_idempotent(tmp_path):
    store = BlobStore(tmp_path)
    assert store.put(b"same") == store.put(b"same")
    assert store.digests() == [hashlib.sha256(b"same").hexdigest()]


def test_blob_layout_is_sharded(tmp_path):
    store = BlobStore(tmp_path)
    digest = store.put(b"sharded")
    path = tmp_path / "objects" / digest[:2] / digest[2:4] / digest
    assert path.is_file()
    assert path.read_bytes() == b"sharded"


def test_blob_missing_digest_raises_storage_error(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(StorageError, match="no blob"):
        store.get("ab" * 32)


def test_blob_delete_then_get_fails(tmp_path):
    store = BlobStore(tmp_path)
    digest = store.put(b"ephemeral")
    store.delete(digest)
    assert not store.contains(digest)
    with pytest.raises(StorageError):
        store.get(digest)
    store.delete(digest)  # deleting twice is fine


# -- hash-mismatch detection --------------------------------------------------

def test_corrupted_blob_detected_on_read(tmp_path):
    store = BlobStore(tmp_path)
    digest = store.put(b"pristine bytes")
    path = tmp_path / "objects" / digest[:2] / digest[2:4] / digest
    path.write_bytes(b"tampered bytes")
    # A fresh instance bypasses the warm LRU cache and must hit disk.
    reopened = BlobStore(tmp_path)
    with pytest.raises(StorageError, match="corrupted"):
        reopened.get(digest)


def test_cached_read_masks_then_fresh_read_detects(tmp_path):
    store = BlobStore(tmp_path)
    digest = store.put(b"cached")
    path = tmp_path / "objects" / digest[:2] / digest[2:4] / digest
    path.write_bytes(b"mangled")
    # Warm cache still serves the original bytes...
    assert store.get(digest) == b"cached"
    # ...but once evicted, the corruption surfaces.
    store._cache_drop(digest)
    with pytest.raises(StorageError, match="corrupted"):
        store.get(digest)


# -- atomicity under interrupted writes ---------------------------------------

def test_interrupted_write_leaves_no_partial_object(tmp_path, monkeypatch):
    store = BlobStore(tmp_path)

    def exploding_replace(src, dst):
        raise OSError("disk pulled mid-rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        store.put(b"never lands")
    monkeypatch.undo()
    digest = hashlib.sha256(b"never lands").hexdigest()
    # No object under the valid name, no tmp litter, and a clean retry
    # (the failed put cached the blob, so force a disk check).
    assert not (tmp_path / "objects" / digest[:2] / digest[2:4]
                / digest).exists()
    assert list((tmp_path / "tmp").iterdir()) == []
    fresh = BlobStore(tmp_path)
    assert not fresh.contains(digest)
    assert fresh.put(b"never lands") == digest
    assert fresh.get(digest) == b"never lands"


def test_leftover_tmp_files_swept_on_open(tmp_path):
    store = BlobStore(tmp_path)
    stray = tmp_path / "tmp" / "orphan-from-a-crash"
    stray.write_bytes(b"half a blob")
    reopened = BlobStore(tmp_path)
    assert not stray.exists()
    assert reopened.digests() == store.digests() == []


# -- LRU bounds ---------------------------------------------------------------

def test_lru_entry_bound(tmp_path):
    store = BlobStore(tmp_path, cache_entries=3)
    digests = [store.put(bytes([i]) * 8) for i in range(6)]
    stats = store.cache_stats()
    assert stats["entries"] == 3
    assert stats["bytes"] == 3 * 8
    # Least-recently-used blobs were evicted; newest survive.
    assert set(store._cache) == set(digests[3:])


def test_lru_byte_bound(tmp_path):
    store = BlobStore(tmp_path, cache_entries=100, cache_bytes=25)
    for i in range(5):
        store.put(bytes([i]) * 10)
    stats = store.cache_stats()
    assert stats["bytes"] <= 25
    assert stats["entries"] == 2


def test_blob_larger_than_cache_is_never_cached(tmp_path):
    store = BlobStore(tmp_path, cache_bytes=4)
    digest = store.put(b"way too large")
    stats = store.cache_stats()
    assert stats["entries"] == 0
    assert stats["bytes"] == 0
    assert store.get(digest) == b"way too large"


def test_lru_recency_order(tmp_path):
    store = BlobStore(tmp_path, cache_entries=2)
    a = store.put(b"aaaa")
    b = store.put(b"bbbb")
    store.get(a)          # refresh a; b is now the eviction victim
    c = store.put(b"cccc")
    assert set(store._cache) == {a, c}
    assert b not in store._cache


def test_cache_hit_miss_eviction_counters(tmp_path):
    store = BlobStore(tmp_path, cache_entries=2)
    a = store.put(b"aaaa")
    b = store.put(b"bbbb")
    store.get(a)                       # hit (put() pre-warms the cache)
    c = store.put(b"cccc")             # evicts b
    store.get(b)                       # miss: read from disk, re-cached
    store.get(c)                       # hit
    stats = store.cache_stats()
    assert stats["hits"] == 2
    assert stats["misses"] == 1
    assert stats["evictions"] >= 1
    assert stats["capacity_entries"] == 2


def test_cache_counters_flow_into_attached_meter(tmp_path, group):
    from repro.system.meter import Meter

    store = BlobStore(tmp_path, cache_entries=1)
    meter = Meter(group)
    store.attach_meter(meter)
    a = store.put(b"aaaa")
    store.put(b"bbbb")                 # evicts a
    store.get(a)                       # miss
    store.get(a)                       # hit (re-cached by the miss)
    counters = meter.counter_summary("store.")
    assert counters.get("store.cache.hit") == 1
    assert counters.get("store.cache.miss") == 1
    assert counters.get("store.cache.eviction", 0) >= 1


# -- RecordStore --------------------------------------------------------------

def test_record_roundtrip(group, scenario, store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("patient/1")
    store.put(record)
    assert "patient/1" in store
    assert len(store) == 1
    loaded = store.get("patient/1")
    assert loaded.to_bytes() == record.to_bytes()
    assert store.record_ids() == ["patient/1"]


def test_duplicate_put_requires_replace(group, scenario, store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("r")
    store.put(record)
    with pytest.raises(StorageError, match="already exists"):
        store.put(record)
    store.put(record, replace=True)
    assert len(store) == 1


def test_missing_record_raises_storage_error(group, store_root):
    store = RecordStore(store_root, group)
    with pytest.raises(StorageError, match="no record"):
        store.get("ghost")
    with pytest.raises(StorageError, match="no record"):
        store.delete("ghost")


def test_delete_collects_unreferenced_blob(group, scenario, store_root):
    store = RecordStore(store_root, group)
    digest = store.put(scenario.make_record("r"))
    store.delete("r")
    assert len(store) == 0
    assert not store.blobs.contains(digest)
    assert store.ciphertext_ids() == frozenset()


def test_replace_component_repoints_and_collects(group, scenario, store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("r")
    old_digest = store.put(record)
    # A replacement component with the same name but a fresh ciphertext
    # (the owner ledger forbids reusing a ciphertext id).
    other = scenario.make_record("r-v2").components["note"]
    digest = store.replace_component("r", other)
    updated = record.with_component(other)
    assert digest == store.digest("r")
    assert digest == hashlib.sha256(updated.to_bytes()).hexdigest()
    assert store.get("r").components["note"].data_ciphertext == (
        other.data_ciphertext
    )
    assert not store.blobs.contains(old_digest)
    assert store.get("r").to_bytes() == updated.to_bytes()


def test_reopen_rebuilds_indexes(group, scenario, store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("reopened/record")
    store.put(record)
    store.put_authority_keys("hospital", b"key-blob")

    reopened = RecordStore(store_root, group)
    assert reopened.record_ids() == ["reopened/record"]
    assert reopened.get("reopened/record").to_bytes() == record.to_bytes()
    assert reopened.locate_ciphertext("reopened/record/note") == (
        "reopened/record", "note"
    )
    assert reopened.get_authority_keys("hospital") == b"key-blob"
    assert reopened.authority_ids() == ["hospital"]


def test_locate_unknown_ciphertext(group, store_root):
    store = RecordStore(store_root, group)
    with pytest.raises(StorageError, match="no ciphertext"):
        store.locate_ciphertext("nope")


def test_missing_authority_keys(group, store_root):
    store = RecordStore(store_root, group)
    with pytest.raises(StorageError, match="no published keys"):
        store.get_authority_keys("nowhere")


def test_record_ids_with_awkward_names(group, scenario, store_root):
    """Ref filenames are percent-quoted, so ids can hold separators."""
    store = RecordStore(store_root, group)
    rid = "dir/../weird name?%41"
    store.put(scenario.make_record(rid))
    assert RecordStore(store_root, group).record_ids() == [rid]


def test_storage_bytes_counts_payload(group, scenario, store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("r")
    store.put(record)
    assert store.storage_bytes() == record.payload_size_bytes(group)


# -- replace/gc interleavings & crash-recovery audit (satellite) ---------------

def test_gc_never_collects_referenced_blobs(group, scenario, store_root):
    """An interleaved replace + gc only reclaims true orphans."""
    store = RecordStore(store_root, group)
    keep = store.put(scenario.make_record("keep"))
    old = store.put(scenario.make_record("mutating"))
    replacement = scenario.make_record("mutating-v2").components["note"]
    new = store.put(
        store.get("mutating").with_component(replacement), replace=True
    )
    orphan = store.blobs.put(b"stray bytes no ref points at")
    assert store.gc() == sorted({orphan})
    # Every referenced blob survived the sweep.
    for digest in (keep, new):
        assert store.blobs.contains(digest)
    assert not store.blobs.contains(old)      # collected by the replace
    assert store.get("keep") and store.get("mutating")
    assert store.check()["ok"]


def test_replace_with_identical_bytes_keeps_the_blob(group, scenario,
                                                     store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("r")
    digest = store.put(record)
    assert store.put(record, replace=True) == digest
    assert store.blobs.contains(digest)
    assert store.get("r").to_bytes() == record.to_bytes()
    assert store.check()["ok"]


def test_check_flags_orphans_and_gc_clears_them(group, scenario, store_root):
    store = RecordStore(store_root, group)
    store.put(scenario.make_record("r"))
    orphan = store.blobs.put(b"left behind by a crash")
    report = store.check()
    assert not report["ok"]
    assert report["orphan_blobs"] == [orphan]
    assert not report["missing_blobs"] and not report["index_mismatches"]
    assert store.gc() == [orphan]
    assert store.check()["ok"]


def test_check_flags_missing_and_corrupt_blobs(group, scenario, store_root):
    store = RecordStore(store_root, group)
    gone = store.put(scenario.make_record("gone"))
    bad = store.put(scenario.make_record("bad"))
    store.blobs._path(gone).unlink()
    store.blobs._path(bad).write_bytes(b"scrambled")
    store.blobs._cache.clear()
    store.blobs._cache_total = 0
    report = store.check()
    assert report["missing_blobs"] == ["gone"]
    assert report["corrupt_blobs"] == ["bad"]
    assert not report["ok"]


def test_failed_replace_leaves_old_record_readable(group, scenario,
                                                   store_root, monkeypatch):
    """A write failure between blob write and ref repoint is invisible
    to readers: the ref still resolves to the old record, and the only
    residue is an orphaned new blob."""
    from repro.service import store as store_mod

    store = RecordStore(store_root, group)
    record = scenario.make_record("r")
    store.put(record)
    replacement = scenario.make_record("r-v2").components["note"]

    real_write = store_mod._atomic_write

    def failing_ref_write(directory, path, data):
        if path.parent.name == "refs":
            raise OSError("disk died mid-repoint")
        real_write(directory, path, data)

    monkeypatch.setattr(store_mod, "_atomic_write", failing_ref_write)
    with pytest.raises(OSError):
        store.replace_component("r", replacement)
    monkeypatch.undo()

    reopened = RecordStore(store_root, group)
    assert reopened.get("r").to_bytes() == record.to_bytes()
    assert reopened.locate_ciphertext("r/note") == ("r", "note")
    report = reopened.check()
    assert len(report["orphan_blobs"]) == 1
    assert not report["missing_blobs"] and not report["index_mismatches"]
    assert reopened.gc() == report["orphan_blobs"]
    assert reopened.check()["ok"]
    assert reopened.get("r").to_bytes() == record.to_bytes()


# -- digest probes & repair writes (the cluster's building blocks) ------------

def corrupt_on_disk(store, record_id):
    digest = store.digest(record_id)
    path = store.blobs._path(digest)
    path.write_bytes(b"bit rot" + path.read_bytes()[7:])
    store.blobs._cache_drop(digest)
    return digest


def test_digest_and_verify_record(group, scenario, store_root):
    store = RecordStore(store_root, group)
    digest = store.put(scenario.make_record("r"))
    assert store.digest("r") == digest
    assert store.verify_record("r")
    corrupt_on_disk(store, "r")
    assert not store.verify_record("r")
    with pytest.raises(StorageError):
        store.digest("ghost")
    with pytest.raises(StorageError):
        store.verify_record("ghost")


def test_put_record_bytes_repairs_a_corrupt_replica(group, scenario,
                                                    store_root):
    healthy = RecordStore(store_root / "healthy", group)
    damaged = RecordStore(store_root / "damaged", group)
    record = scenario.make_record("r")
    digest = healthy.put(record)
    damaged.put(record)
    corrupt_on_disk(damaged, "r")
    assert not damaged.verify_record("r")

    blob = healthy.get_record_bytes("r")
    # Byte-preserving: the repaired replica lands digest-identical.
    assert damaged.put_record_bytes("r", blob) == digest
    assert damaged.verify_record("r")
    assert damaged.get("r").to_bytes() == blob
    assert damaged.locate_ciphertext("r/note") == ("r", "note")


def test_put_record_bytes_fills_a_missing_replica(group, scenario,
                                                  store_root):
    source = RecordStore(store_root / "a", group)
    target = RecordStore(store_root / "b", group)
    source.put(scenario.make_record("r"))
    target.put_record_bytes("r", source.get_record_bytes("r"))
    assert target.digest("r") == source.digest("r")
    assert target.verify_record("r")


def test_put_record_bytes_rejects_wrong_record_and_garbage(group, scenario,
                                                           store_root):
    store = RecordStore(store_root, group)
    record = scenario.make_record("r")
    store.put(record)
    with pytest.raises(StorageError):
        store.put_record_bytes("r", scenario.make_record("liar").to_bytes())
    with pytest.raises(StorageError):
        store.put_record_bytes("r", b"not a record at all")
    assert store.get("r").to_bytes() == record.to_bytes()
