"""Per-layer tracing from the benchmark's own files.

:class:`Tracer` wraps public functions at the names their callers look
them up (a class attribute, or a module attribute the caller imported
by name) and records one span per call while enabled: id, name, start,
end, parent span, op id and thread. Spans nest through a context
variable, so each asyncio task and each thread keeps its own stack; the
op id comes from the load driver (:data:`loops.CURRENT_OP`). Spans stay
in memory and are written out when the run ends.

:class:`ClientTracer` instruments the generator process for the traced
window; ``server_launcher.py`` does the same inside the server process.
:class:`Report` turns both span sets into the per-layer metrics listed
in ``BENCHMARK.json``. A layer's self time is its span's duration minus
the part its child spans cover. Time values are per call (``_ms``, in
ms), counts per op as ``ops_s`` counts ops (``_calls``, ``_per_op``).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import math
import threading
import time

#: Request types whose client-side wall time is reported per call.
REQUEST_TYPES = ("FETCH_COMPONENT", "FETCH_RECORD", "TRANSFORM_FETCH",
                 "STORE_RECORD", "REPLACE_COMPONENT", "REENCRYPT_SWEEP")
PAIRING_OPS = ("pairings", "g1_exponentiations", "gt_exponentiations",
               "fp_invs")
#: Span name -> whether the layer also reports calls per op.
CLIENT_LAYERS = {
    "client.records.decode": True,
    "client.fastpath.decrypt": False,
    "client.crypto.open": False,
    "client.fastpath.encrypt": False,
    "client.fastpath.refill": True,
    "client.outsourcing.finalize": False,
    "client.owner.update_infos": False,
}
#: The same for the server process's layers.
SERVER_LAYERS = {
    "server.records.decode_checked": True,
    "server.records.decode_trusted": True,
    "server.store.get": False,
    "server.store.put": False,
    "server.store.replace_component": False,
    "server.store.sweep_write": False,
    "server.store.blob_get": False,
    "server.outsourcing.transform": False,
    "server.parallel.reencrypt": False,
}
OFFLOAD_THREAD = "repro-crypto"


class Tracer:
    """Span recorder plus the function patches that feed it."""

    def __init__(self, op_context=None):
        self.enabled = False
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._op = op_context
        self._patches = []

    def patch(self, owner, attr: str, name, measure=None,
              span: bool = True) -> None:
        """Wrap ``owner.attr``; ``name`` is a string or a function of the
        call's arguments, ``measure`` maps the arguments to an amount
        added to ``counts[name]``. With ``span=False`` the call is only
        measured: it opens no span, so its time stays in its caller's
        self time."""
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = self._wrap(func, name, measure, span)
        setattr(owner, attr,
                classmethod(wrapper) if isinstance(raw, classmethod)
                else wrapper)
        self._patches.append((owner, attr, raw))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, func, name, measure, with_span=True):
        tracer = self

        def count(args, kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if measure is not None:
                tracer.counts[label] = (tracer.counts.get(label, 0)
                                        + measure(*args, **kwargs))
            return label

        if not with_span:
            def measured(*args, **kwargs):
                if tracer.enabled:
                    count(args, kwargs)
                return func(*args, **kwargs)
            return functools.update_wrapper(measured, func)

        def enter(args, kwargs):
            label = count(args, kwargs)
            span = [next(tracer._ids), label, time.perf_counter(), None,
                    tracer._current.get(),
                    tracer._op.get() if tracer._op is not None else None,
                    threading.current_thread().name]
            return span, tracer._current.set(span[0])

        def leave(span, token):
            span[3] = time.perf_counter()
            tracer._current.reset(token)
            tracer.spans.append(span)

        if inspect.iscoroutinefunction(func):
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                span, token = enter(args, kwargs)
                try:
                    return await func(*args, **kwargs)
                finally:
                    leave(span, token)
        else:
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return func(*args, **kwargs)
                span, token = enter(args, kwargs)
                try:
                    return func(*args, **kwargs)
                finally:
                    leave(span, token)
        return functools.update_wrapper(wrapper, func)


def _request_name(_connection, msg_type, *args, **kwargs) -> str:
    return f"client.request.{msg_type.name}"


class ClientTracer(Tracer):
    """The generator process's layers, traced for one window."""

    def __init__(self, world):
        from loops import CURRENT_OP

        super().__init__(CURRENT_OP)
        self.world = world
        self.before = self.after = None

    def _snapshot(self) -> dict:
        meters = [connection.meter for connection in self.world.connections]
        return {
            "ops": self.world.group.op_counts(),
            "hit": sum(m.counter("decrypt.session.hit") for m in meters),
            "miss": sum(m.counter("decrypt.session.miss") for m in meters),
            "retries": sum(
                1 for connection in self.world.connections
                for entry in connection.retry_log
                if entry["event"] == "retry"
            ),
        }

    def __enter__(self):
        import repro.service.client as client_module
        from repro.core.owner import DataOwner
        from repro.fastpath.decrypt import DecryptionSession
        from repro.fastpath.session import EncryptionSession
        from repro.system.records import StoredComponent, StoredRecord

        self.patch(StoredComponent, "from_bytes", "client.records.decode")
        self.patch(StoredRecord, "from_bytes", "client.records.decode")
        self.patch(DecryptionSession, "decrypt", "client.fastpath.decrypt")
        self.patch(client_module, "open_sealed", "client.crypto.open")
        self.patch(client_module, "encrypt_with_session",
                   "client.fastpath.encrypt")
        self.patch(EncryptionSession, "refill", "client.fastpath.refill")
        self.patch(client_module, "user_finalize_value",
                   "client.outsourcing.finalize")
        self.patch(DataOwner, "update_infos_for_records",
                   "client.owner.update_infos")
        self.patch(client_module.ServiceConnection, "request", _request_name)
        self.patch(client_module.ServiceConnection, "request_stream",
                   _request_name)
        self.before = self._snapshot()
        self.enabled = True
        return self

    def __exit__(self, *exc_info):
        self.enabled = False
        self.after = self._snapshot()
        self.unpatch()
        return False

    def delta(self, key: str):
        return self.after[key] - self.before[key]


# -- span arithmetic ---------------------------------------------------------

def _union(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """``(span, self seconds)`` for every span."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return [
        (span, (span[3] - span[2]) - _union(children.get(span[0], ())))
        for span in spans
    ]


def layer_totals(spans) -> dict:
    """name -> [self seconds, outermost calls] (a call nested in a span
    of the same name, as a record decode decoding its components, is
    part of that call)."""
    names = {span[0]: span[1] for span in spans}
    totals = {}
    for span, own in self_times(spans):
        entry = totals.setdefault(span[1], [0.0, 0])
        entry[0] += own
        if names.get(span[4]) != span[1]:
            entry[1] += 1
    return totals


class Report:
    """Per-layer metrics, attribution and overhead of one traced run."""

    def __init__(self, workload, tracer, recorder, usage, server, plain,
                 plain_usage):
        self.workload = workload
        self.tracer = tracer
        self.recorder = recorder
        self.usage = usage
        self.server = server
        self.plain = plain
        self.plain_usage = plain_usage
        self.ops = max(workload.ops(recorder), 1)
        self.client = layer_totals(tracer.spans)
        self.server_totals = layer_totals(server["spans"])

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _per_call(totals, name) -> float:
        seconds, calls = totals.get(name, (0.0, 0))
        return 1000 * seconds / calls if calls else 0.0

    def _calls_per_op(self, totals, name) -> float:
        return totals.get(name, (0.0, 0))[1] / self.ops

    def _headline_p50(self, recorder) -> float:
        from loops import p50
        samples = recorder.samples(*self.workload.headline)
        return 1000 * p50(samples) if samples else 0.0

    def _ops_s(self, recorder, usage) -> float:
        return self.workload.ops(recorder) / usage["wall"]

    def _payload_bytes_written(self) -> int:
        """Uploaded, replaced and re-encrypted payload bytes."""
        from world import PAYLOAD_BYTES
        return PAYLOAD_BYTES * (self.recorder.completed("upload", "replace")
                                + self.recorder.units)

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict:
        from loops import tail

        values = {}

        def put(name, value, unit):
            values[name] = {"value": value, "unit": unit}

        for layer, with_calls in CLIENT_LAYERS.items():
            put(f"{layer}_ms", self._per_call(self.client, layer), "ms")
            if with_calls:
                put(f"{layer}_calls", self._calls_per_op(self.client, layer),
                    "calls/op")
        hits, misses = self.tracer.delta("hit"), self.tracer.delta("miss")
        put("client.fastpath.session_hit_ratio",
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        for request in REQUEST_TYPES:
            put(f"client.request_ms.{request}",
                self._per_call(self.client, f"client.request.{request}"),
                "ms")
        put("client.retries", self.tracer.delta("retries"), "count")
        before, after = self.tracer.before["ops"], self.tracer.after["ops"]
        for op in PAIRING_OPS:
            put(f"client.pairing.{op}_per_op",
                (after[op] - before[op]) / self.ops, "count/op")
        lags = self.plain.lags
        put("loadgen.lag_p99_ms",
            1000 * tail(lags)[0] if len(lags) >= 11 else 0.0, "ms")
        put("loadgen.shed", self.plain.shed, "count")
        put("failed_frac", self.recorder.total_failed()
            / max(self.recorder.total_attempted(), 1), "ratio")

        for layer, with_calls in SERVER_LAYERS.items():
            put(f"{layer}_ms", self._per_call(self.server_totals, layer), "ms")
            if with_calls:
                put(f"{layer}_calls",
                    self._calls_per_op(self.server_totals, layer), "calls/op")
        payload = self._payload_bytes_written()
        written = self.server["counts"].get("server.store.blob_put", 0)
        put("server.store.blob_bytes_written_per_payload_byte",
            written / payload if payload else 0.0, "ratio")
        cache_before, cache_after = (self.server["cache_before"],
                                     self.server["cache_after"])
        hits = cache_after["hits"] - cache_before["hits"]
        misses = cache_after["misses"] - cache_before["misses"]
        put("server.store.cache_hit_ratio",
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        wall = self.server["end"] - self.server["start"]
        busy = _union((span[2], span[3]) for span in self.server["spans"]
                      if span[6].startswith(OFFLOAD_THREAD))
        put("server.offload_busy_frac", busy / wall, "ratio")
        before, after = self.server["ops_before"], self.server["ops_after"]
        for op in PAIRING_OPS:
            put(f"server.pairing.{op}_per_op",
                (after[op] - before[op]) / self.ops, "count/op")

        measured, explained = self._attribution()
        put("attribution.explained_frac",
            explained / measured if measured else 0.0, "ratio")
        put("attribution.residual_ms", measured - explained, "ms")
        plain_p50 = self._headline_p50(self.plain)
        put("trace.overhead_p50_frac",
            self._headline_p50(self.recorder) / plain_p50 - 1
            if plain_p50 else 0.0, "ratio")
        plain_ops = self._ops_s(self.plain, self.plain_usage)
        put("trace.overhead_ops_s_frac",
            1 - self._ops_s(self.recorder, self.usage) / plain_ops
            if plain_ops else 0.0, "ratio")
        return values

    # -- attribution ------------------------------------------------------------

    def _op_layers(self, classes) -> dict:
        """Mean client self ms per op of ``classes``, by layer."""
        ops = {op for op, cls in self.recorder.op_classes.items()
               if cls in classes}
        completed = max(self.recorder.completed(*classes), 1)
        per_layer = {}
        for span, own in self_times(self.tracer.spans):
            if span[5] in ops:
                per_layer[span[1]] = per_layer.get(span[1], 0.0) + own
        return {name: 1000 * total / completed
                for name, total in per_layer.items()}

    def _server_per_op(self, classes) -> dict:
        """Server self ms per op by layer, when every op of the window
        is of ``classes`` (server spans carry no op id, so they can only
        be attributed to the window's ops as a whole)."""
        if not set(self.recorder.latencies) <= set(classes):
            return {}
        completed = max(self.recorder.completed(*classes), 1)
        return {name: 1000 * seconds / completed
                for name, (seconds, _) in self.server_totals.items()}

    def _explain(self, classes) -> tuple:
        """(p50, named layer self ms per op, request span self ms).

        The named layers are every client layer except the request
        spans, plus the server layers; the request span's self time is
        what they leave of the round trip (wire, queueing, event loops
        and server work outside the wrapped layers)."""
        from loops import p50

        client = self._op_layers(classes)
        request = sum(value for name, value in client.items()
                      if name.startswith("client.request."))
        layers = {name: value for name, value in client.items()
                  if not name.startswith("client.request.")}
        layers.update(self._server_per_op(classes))
        samples = self.recorder.samples(*classes)
        return (1000 * p50(samples) if samples else 0.0), layers, request

    def _attribution(self) -> tuple:
        """(headline p50, sum of named layer self times per headline op)."""
        measured, layers, _ = self._explain(self.workload.headline)
        return measured, sum(layers.values())

    def lines(self) -> list:
        out = [f"traced window {self.usage['wall']:.2f} s; "
               f"untraced window {self.plain_usage['wall']:.2f} s"]
        classes = [(cls,) for cls in sorted(self.recorder.latencies)]
        if len(self.workload.headline) > 1 and set(
                self.workload.headline) <= set(self.recorder.latencies):
            classes.append(tuple(self.workload.headline))
        for group in classes:
            measured, layers, request = self._explain(group)
            explained = sum(layers.values())
            parts = ", ".join(f"{name} {value:.2f}"
                              for name, value in sorted(layers.items()))
            out.append(
                f"attribution {'+'.join(group)}: p50 {measured:.2f} ms; "
                f"layer self ms/op: {parts or 'none'}; sum {explained:.2f} "
                f"ms; residual {measured - explained:.2f} ms (request spans "
                f"hold {request:.2f} ms/op beyond their wrapped layers)"
            )
        server_parts = ", ".join(
            f"{name} {1000 * seconds / self.ops:.2f}"
            for name, (seconds, _) in sorted(self.server_totals.items()))
        out.append(f"server self ms per op as ops_s counts ops: "
                   f"{server_parts or 'none'}")
        return out

    def write_spans(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "op", "thread")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": fields,
            "client": self.tracer.spans,
            "server": self.server["spans"],
            "op_classes": self.recorder.op_classes,
        }), "utf-8")
