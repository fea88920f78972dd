"""Run ``repro serve`` with the server's layer functions traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/server_launcher.py SPANS.json serve --preset SS512 ...

The launcher wraps public functions at the names the server looks them
up, then hands the remaining arguments to the ``repro`` CLI, which
builds :class:`StorageService` exactly as ``repro serve`` does. Tracing
starts disabled: SIGUSR1 opens the traced window (and snapshots the
blob-cache and pairing-operation counters), SIGUSR2 closes it. When the
server exits (SIGINT), the spans and snapshots are written to
``SPANS.json``.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

from tracing import Tracer


def _decode_name(_cls, _group, _blob, *, validate: bool = True) -> str:
    return ("server.records.decode_checked" if validate
            else "server.records.decode_trusted")


def _blob_size(_store, blob, **_kwargs) -> int:
    return len(blob)


def _refpack_size(_store, items, **_kwargs) -> int:
    """Bytes of the refpack file ``replace_record_bytes_many`` writes:
    its magic line, then per record an id length, the id, a hex digest,
    a blob length and the blob."""
    from repro.service.store import _REFPACK_MAGIC
    return len(_REFPACK_MAGIC) + sum(
        4 + len(record_id.encode("utf-8")) + 64 + 4 + len(blob)
        for record_id, blob in items)


def main(argv) -> int:
    import repro.cli
    import repro.service.server as server_module
    from repro.service.store import BlobStore, RecordStore
    from repro.system.records import StoredComponent, StoredRecord

    spans_out = Path(argv[0])
    tracer = Tracer()
    tracer.patch(StoredRecord, "from_bytes", _decode_name)
    tracer.patch(StoredComponent, "from_bytes", _decode_name)
    tracer.patch(RecordStore, "get", "server.store.get")
    tracer.patch(RecordStore, "put", "server.store.put")
    tracer.patch(RecordStore, "replace_component",
                 "server.store.replace_component")
    tracer.patch(RecordStore, "replace_record_bytes_many",
                 "server.store.blob_put", _refpack_size, span=False)
    tracer.patch(RecordStore, "replace_record_bytes_many",
                 "server.store.sweep_write")
    tracer.patch(RecordStore, "commit_replacements",
                 "server.store.sweep_write")
    tracer.patch(BlobStore, "get", "server.store.blob_get")
    # Bytes only: the fsync'd blob write stays in the self time of the
    # store call that made it (put, replace_component).
    tracer.patch(BlobStore, "put", "server.store.blob_put", _blob_size,
                 span=False)
    tracer.patch(server_module, "server_transform_many",
                 "server.outsourcing.transform")
    tracer.patch(server_module, "reencrypt_records_raw",
                 "server.parallel.reencrypt")

    services = []
    original_init = server_module.StorageService.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        services.append(self)

    server_module.StorageService.__init__ = init
    window = {}

    def snapshot(suffix: str) -> None:
        service = services[0]
        window[f"cache_{suffix}"] = service.store.cache_stats()
        window[f"ops_{suffix}"] = service.group.op_counts()

    def begin(_signum, _frame) -> None:
        snapshot("before")
        window["start"] = time.perf_counter()
        tracer.enabled = True

    def end(_signum, _frame) -> None:
        tracer.enabled = False
        window["end"] = time.perf_counter()
        snapshot("after")

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, end)
    try:
        return repro.cli.main(argv[1:])
    finally:
        spans_out.write_text(json.dumps(
            dict(window, spans=tracer.spans, counts=tracer.counts)
        ), "utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
