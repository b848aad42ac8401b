"""The traced run: spans around each layer's public entry points.

The program's own tracer stays off.  Instead, :class:`LayerTrace`
wraps the calls into each layer (module functions, class methods, the
gateway's request handler) and records spans into a private
:class:`repro.obs.trace.Tracer`.  Spans carry a name, start, end and
parent; the client and gateway spans of one HTTP request share a
``request_id`` (``<client port>:<request number on that connection>``).

Spans are recorded only while the workload's clock runs, kept in
memory, and written out at exit in the Chrome trace format
(:func:`repro.obs.export.write_chrome_trace`).

Per-answer calls (``protocol.result_message`` / ``encode``, the
gateway's line decode) would cost more as spans than the work they
time, so they are timed without a span: their time is credited to the
enclosing span (``agg_s``) and to their own layer.  A span's self time
is its duration minus its child spans and its credited time.
"""

from __future__ import annotations

import json
import os
import threading
import time
import types
import weakref
from collections import defaultdict
from importlib import import_module
from typing import Any, Callable

from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer, current_span

#: Spans per traced run stay far below this; ``trace.dropped`` > 0 in
#: the output would mean the per-layer numbers are incomplete.
SPAN_CAPACITY = 1_000_000

_ABSENT = object()


class LayerTrace:
    """Installs the layer wrappers and turns their spans into metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer(capacity=SPAN_CAPACITY)
        #: Set by the workload's stopwatch: spans are kept only while
        #: the timed load runs, never during set-up or answer checks.
        self.recording = False
        self.counts: dict[str, float] = defaultdict(float)
        self._compiled: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[Any, str, Any]] = []
        self._request_seq: dict[Any, int] = defaultdict(int)
        self._core_before: dict | None = None
        self._core_after: dict | None = None
        self._engine = None
        self._gateway = None

    # -- patching --------------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped entry point (last patched, first restored)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _spanned(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self.tracer

        def wrapped(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result

        return wrapped

    def _credit(self, layer: str, seconds: float) -> None:
        self.counts[layer + ".agg_s"] += seconds
        span = current_span()
        if span is not None:
            span.attrs["agg_s"] = span.attrs.get("agg_s", 0.0) + seconds

    def install(self, engine, gateway) -> None:
        """Wrap every layer entry point the benchmark measures."""
        # import_module: ``repro.engine.plan`` the module is shadowed
        # by the package's re-exported ``plan`` function.
        flat_module = import_module("repro.dp.flat")
        plan_module = import_module("repro.engine.plan")
        parallel_module = import_module("repro.parallel.build")
        client_module = import_module("repro.serve.client")
        from repro.data.backend import SQLiteBackend
        from repro.data.relation import Relation
        from repro.dp.corebuf import CoreCache
        from repro.engine.engine import Engine, PreparedQuery
        from repro.engine.stream import PrefixStream
        from repro.parallel.build import ParallelPreprocessor
        from repro.serve import protocol
        from repro.serve.client import HttpServeClient
        from repro.serve.session import SessionManager

        self._engine = engine
        self._gateway = gateway
        counts = self.counts
        tracer = self.tracer

        # data: appends and rows read from the storage backend.
        self._patch(Relation, "add", self._spanned("data.append", Relation.add))
        for name in ("iter_rows", "sorted_rows"):
            self._patch(
                SQLiteBackend, name, self._counted_rows(getattr(SQLiteBackend, name))
            )
        fetch_rows = SQLiteBackend.fetch_rows

        def counted_fetch_rows(backend, *args, **kwargs):
            rows = fetch_rows(backend, *args, **kwargs)
            if self.recording:
                counts["data.rows_read"] += len(rows)
            return rows

        self._patch(SQLiteBackend, "fetch_rows", counted_fetch_rows)

        # engine: prepare (plan-cache hits) and bind.
        prepare = Engine.prepare

        def traced_prepare(target, *args, **kwargs):
            if not self.recording:
                return prepare(target, *args, **kwargs)
            hits = target.stats.prepare_hits
            with tracer.span("engine.prepare"):
                prepared = prepare(target, *args, **kwargs)
            counts["engine.prepare.hits"] += target.stats.prepare_hits > hits
            return prepared

        self._patch(Engine, "prepare", traced_prepare)
        self._patch(
            PreparedQuery, "bind", self._spanned("engine.bind", PreparedQuery.bind)
        )

        # Preprocessing stages, wrapped where the bind path looks them up.
        self._patch(
            plan_module,
            "decompose_cycle",
            self._spanned("decomposition", plan_module.decompose_cycle),
        )
        for module in (plan_module, parallel_module):
            self._patch(
                module, "build_tdp", self._spanned("dp.build", module.build_tdp)
            )

        def note_compiled(_span, args, result) -> None:
            try:
                self._compiled.setdefault(args[0], result is not None)
            except TypeError:
                pass  # a T-DP shell without weak references: not counted

        for module in (plan_module, flat_module):
            self._patch(
                module,
                "compile_tdp",
                self._spanned("dp.compile", module.compile_tdp, note_compiled),
            )
        self._patch(
            ParallelPreprocessor,
            "build",
            self._spanned("parallel.build", ParallelPreprocessor.build),
        )
        store = CoreCache.store

        def traced_store(cache, *args, **kwargs):
            stored = store(cache, *args, **kwargs)
            if self.recording and stored:
                counts["corebuf.bytes_written"] += os.path.getsize(cache.path)
            return stored

        self._patch(CoreCache, "store", traced_store)

        # engine.stream: extensions vs replays of the memoized prefix.
        ensure = PrefixStream.ensure

        def traced_ensure(stream, *args, **kwargs):
            if not self.recording:
                return ensure(stream, *args, **kwargs)
            before = stream.produced
            with tracer.span("stream.ensure"):
                available = ensure(stream, *args, **kwargs)
            counts["stream.extended"] += stream.produced - before
            return available

        self._patch(PrefixStream, "ensure", traced_ensure)

        # serve.session: one span per fetch, slices per fetch.
        fetch_async = SessionManager.fetch_async

        async def traced_fetch(manager, *args, **kwargs):
            if not self.recording:
                return await fetch_async(manager, *args, **kwargs)
            with tracer.span("session.fetch"):
                outcome = await fetch_async(manager, *args, **kwargs)
            counts["session.answers"] += len(outcome.results)
            counts["session.slices"] += outcome.slices
            return outcome

        self._patch(SessionManager, "fetch_async", traced_fetch)

        # serve.protocol: per-answer message build + encode, no spans.
        result_message, encode, decode = (
            protocol.result_message, protocol.encode, protocol.decode
        )

        def timed_result_message(*args, **kwargs):
            if not self.recording:
                return result_message(*args, **kwargs)
            start = time.perf_counter()
            message = result_message(*args, **kwargs)
            self._credit("protocol", time.perf_counter() - start)
            return message

        def timed_encode(message):
            if not self.recording:
                return encode(message)
            start = time.perf_counter()
            line = encode(message)
            self._credit("protocol", time.perf_counter() - start)
            if "result" in message:
                counts["protocol.answers"] += 1
                counts["protocol.result_bytes"] += len(line)
            return line

        def timed_decode(line):
            # Only the gateway decodes protocol lines here (it folds the
            # dispatcher's line stream into one HTTP body).
            if not self.recording:
                return decode(line)
            start = time.perf_counter()
            message = decode(line)
            self._credit("gateway", time.perf_counter() - start)
            return message

        self._patch(protocol, "result_message", timed_result_message)
        self._patch(protocol, "encode", timed_encode)
        self._patch(protocol, "decode", timed_decode)

        # serve.gateway: the HTTP request handler of this gateway.
        route = gateway._route

        async def traced_route(request, writer):
            peer = writer.get_extra_info("peername")
            key = ("gateway", peer[1] if isinstance(peer, tuple) else peer)
            self._request_seq[key] += 1
            if not self.recording:
                return await route(request, writer)
            request_id = f"{key[1]}:{self._request_seq[key]}"
            with tracer.span("gateway.request", request_id=request_id):
                return await route(request, writer)

        self._patch(gateway, "_route", traced_route)

        # serve.client: round trip and JSON decode of each response.
        client_request = HttpServeClient.request
        client_lock = threading.Lock()

        def traced_request(client, *args, **kwargs):
            key = ("client", id(client))
            if not self.recording:
                try:
                    return client_request(client, *args, **kwargs)
                finally:
                    self._request_seq[key] += 1
            with tracer.span("client.request") as span:
                try:
                    return client_request(client, *args, **kwargs)
                finally:
                    self._request_seq[key] += 1
                    # HttpServeClient exposes no socket; its connection's
                    # local port is the peer port the gateway sees.
                    sock = client._conn.sock
                    if sock is not None:
                        port = sock.getsockname()[1]
                        span.set(request_id=f"{port}:{self._request_seq[key]}")

        def traced_loads(text, *args, **kwargs):
            if not self.recording:
                return json.loads(text, *args, **kwargs)
            with tracer.span("client.decode"):
                decoded = json.loads(text, *args, **kwargs)
            with client_lock:  # two client threads decode at once
                counts["client.answers"] += len(decoded.get("results", ()))
            return decoded

        self._patch(HttpServeClient, "request", traced_request)
        # HttpServeClient decodes through its module's ``json`` global;
        # a copy of the json module with a timed ``loads`` stands in.
        self._patch(
            client_module,
            "json",
            types.SimpleNamespace(**{**vars(json), "loads": traced_loads}),
        )

    def _counted_rows(self, method: Callable) -> Callable:
        counts = self.counts

        def counted(backend, *args, **kwargs):
            rows = method(backend, *args, **kwargs)
            if not self.recording:
                return rows
            return _counting(rows, counts)

        return counted

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._core_before is None and self._core_cache() is not None:
            self._core_before = self._core_cache().stats()
        self.recording = True

    def stop(self) -> None:
        self.recording = False
        if self._core_cache() is not None:
            self._core_after = self._core_cache().stats()

    def _core_cache(self):
        return None if self._engine is None else self._engine.core_cache

    def sample_stream_bytes(self, engine) -> None:
        """Track the largest memoized-prefix footprint seen (untimed)."""
        size = engine.memory_stats()["stream_bytes"]
        self.counts["stream.bytes"] = max(self.counts["stream.bytes"], size)

    def write(self, path: str) -> int:
        """Write the recorded spans as a Chrome trace; returns events."""
        return write_chrome_trace(path, self.tracer.spans(), "servebench")

    # -- metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str, bool]]:
        """Per-layer metrics: ``name -> (value, unit, applicable)``.

        ``*.ms`` / ``*.self_ms`` are means per call of that layer's
        entry point over the timed part of the run.  A metric is not
        applicable (value 0) when its layer saw no calls in this run.
        """
        from repro.serve.resilience import COUNTERS as resilience

        spans = self.tracer.spans()
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.duration
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        gateway_by_id: dict[str, float] = {}
        for span in spans:
            calls[span.name] += 1
            total[span.name] += span.duration
            own[span.name] += max(
                0.0,
                span.duration - covered[span.span_id] - span.attrs.get("agg_s", 0.0),
            )
            if span.name == "gateway.request":
                gateway_by_id[span.attrs["request_id"]] = span.duration
        wait, matched = 0.0, 0
        for span in spans:
            server = gateway_by_id.get(span.attrs.get("request_id"))
            if span.name == "client.request" and server is not None:
                # Round trip minus client decode (its only child span)
                # minus the gateway's own handling of this request.
                wait += span.duration - covered[span.span_id] - server
                matched += 1
        counts = self.counts
        core = {"hits": 0, "misses": 0, "stale": 0, "writes": 0}
        if self._core_before is not None and self._core_after is not None:
            core = {k: self._core_after[k] - self._core_before[k] for k in core}
        retries = sum(
            value
            for name, value in resilience.snapshot().items()
            if name.startswith("retries_")
        )
        shed = 0 if self._gateway is None else int(self._gateway.policy.shed)
        has_core = self._core_before is not None

        out: dict[str, tuple[float, str, bool]] = {}

        def count(metric: str, value: float, applicable: bool = True) -> None:
            out[metric] = (value, "count", applicable)

        def ratio(metric: str, part: float, whole: float, unit="ratio", scale=1.0) -> None:
            out[metric] = (part * scale / whole if whole else 0.0, unit, whole > 0)

        def mean_ms(metric: str, name: str, table, extra: float = 0.0) -> None:
            ratio(metric, table[name] + extra, calls[name], "ms", 1e3)

        count("data.append.calls", calls["data.append"])
        mean_ms("data.append.ms", "data.append", total)
        count("data.rows_read", counts["data.rows_read"], has_core)
        count("engine.prepare.calls", calls["engine.prepare"])
        mean_ms("engine.prepare.ms", "engine.prepare", total)
        ratio("engine.plan_hit_ratio", counts["engine.prepare.hits"], calls["engine.prepare"])
        count("engine.bind.calls", calls["engine.bind"])
        mean_ms("engine.bind.self_ms", "engine.bind", own)
        mean_ms("decomposition.ms", "decomposition", total)
        mean_ms("dp.build.ms", "dp.build", total)
        mean_ms("dp.compile.ms", "dp.compile", total)
        ratio("dp.compiled_ratio", sum(self._compiled.values()), len(self._compiled))
        mean_ms("parallel.build.ms", "parallel.build", total)
        ratio("corebuf.hit_ratio", core["hits"], core["hits"] + core["misses"] + core["stale"])
        count("corebuf.writes", core["writes"], has_core)
        out["corebuf.bytes_written"] = (counts["corebuf.bytes_written"], "bytes", has_core)
        count("stream.ensure.calls", calls["stream.ensure"])
        mean_ms("stream.self_ms", "stream.ensure", own)
        answers = counts["session.answers"]
        out["stream.replay_ratio"] = (
            max(0.0, 1.0 - counts["stream.extended"] / answers) if answers else 0.0,
            "ratio",
            answers > 0,
        )
        out["stream.bytes"] = (counts["stream.bytes"], "bytes", True)
        count("session.fetch.calls", calls["session.fetch"])
        mean_ms("session.self_ms", "session.fetch", own)
        ratio("session.slices_per_fetch", counts["session.slices"], calls["session.fetch"], "count")
        ratio(
            "protocol.encode.us_per_answer",
            counts["protocol.agg_s"], counts["protocol.answers"], "us", 1e6,
        )
        ratio(
            "protocol.bytes_per_answer",
            counts["protocol.result_bytes"], counts["protocol.answers"], "bytes",
        )
        mean_ms("gateway.self_ms", "gateway.request", own, counts["gateway.agg_s"])
        ratio("gateway.wait_ms", wait, matched, "ms", 1e3)
        ratio(
            "client.decode_us_per_answer",
            total["client.decode"], counts["client.answers"], "us", 1e6,
        )
        count("policy.shed", shed)
        count("resilience.retries", retries)
        count("trace.spans", len(spans))
        count("trace.dropped", self.tracer.dropped)
        return out


def _counting(rows, counts):
    for row in rows:
        counts["data.rows_read"] += 1
        yield row
