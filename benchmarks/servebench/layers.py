"""Outside-in per-layer spans for the traced run.

The traced run times the calls *into* each layer's public functions from
here; nothing inside ``src/`` changes.  :meth:`Tracer.installed` swaps in
wrappers and restores the originals on exit.  Modules bind these names
when they are imported, so every import site is wrapped on its own.
No probe is installed: an enabled probe switches on convergence-series
recording in the annealing engines, which would make it another program.

A span records (id, parent, request, layer, phase, thread, start, end).
Spans are kept in memory and written once, as Chrome trace-event JSON.
Executor threads do not inherit the asyncio context, so a span that
opens on a thread with no current span joins its request through the
key digest of the ``get_schedule`` call in flight.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.provenance import provenance_stamp
from repro.serve import ScheduleCache, ScheduleKey, ScheduleService, ScheduleStore
from repro.utils.atomic import atomic_write_json
from workloads import CACHE_CAPACITY

#: Every layer the traced run attributes time to, outermost first.
LAYERS = (
    "serve.frontend",
    "serve.cache",
    "serve.store.get",
    "serve.store.put",
    "trace.io.load",
    "trace.io.save",
    "serve.search",
    "graph.compare.record",
    "trace.compiled",
    "graph.dependency",
    "graph.scheduler",
    "graph.search",
    "parallel.cosearch",
    "graph.rewriter",
    "sched.validate",
    "check.certify",
)

_current: contextvars.ContextVar = contextvars.ContextVar("servebench_span", default=None)


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    layer: str
    phase: str
    thread: int
    start: float
    end: float = 0.0


class Tracer:
    """Span recorder for one traced run; ``phase`` tags every new span."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.durations: dict[str, list[float]] = {"serve.cache.get": [], "trace.io.load": []}
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._in_flight: dict[str, Span] = {}
        self._lock = threading.Lock()

    # -- spans ------------------------------------------------------------ #
    def _open(self, layer: str, parent: Span | None, request: int | None = None) -> Span:
        span = Span(
            id=next(self._ids),
            parent=parent.id if parent else None,
            request=parent.request if parent else request,
            layer=layer,
            phase=self.phase,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        self.spans.append(span)
        return span

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _wrap(self, layer, fn, *, digest_of=None, before=None, after=None):
        """``fn`` timed as one ``layer`` span.

        ``after(args, result, span, before(*args))`` records the layer's
        extras, for measured-phase spans only.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = before(*args, **kwargs) if before else None
            parent = _current.get()
            if parent is None and digest_of is not None:
                parent = self._in_flight.get(digest_of(*args, **kwargs))
            span = self._open(layer, parent)
            token = _current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _current.reset(token)
                span.end = time.perf_counter()
            if after and span.phase == "measure":
                after(args, result, span, pre)
            return result

        return wrapper

    def _wrap_request(self, fn):
        @functools.wraps(fn)
        async def get_schedule(service, key, *args, **kwargs):
            digest = key.digest()
            span = self._open("serve.frontend", None, next(self._request_ids))
            self._in_flight[digest] = span
            token = _current.set(span)
            try:
                return await fn(service, key, *args, **kwargs)
            except Exception:
                if span.phase == "measure":
                    self._count("serve.frontend.failed")
                raise
            finally:
                _current.reset(token)
                span.end = time.perf_counter()
                self._in_flight.pop(digest, None)

        return get_schedule

    # -- per-layer observations ------------------------------------------ #
    def _cache_get(self, _args, _result, span, _pre):
        self.durations["serve.cache.get"].append(span.end - span.start)

    @staticmethod
    def _store_get_before(store, key, **_kw):
        return key in store

    def _store_get(self, _args, result, _span, existed):
        if existed and result is None:
            self._count("serve.store.get.failed")

    def _store_put(self, args, _result, _span, _pre):
        store, key = args[0], args[1]
        self._count("serve.store.put.object_bytes", os.path.getsize(store.object_path(key)))

    def _load(self, _args, _result, span, _pre):
        self.durations["trace.io.load"].append(span.end - span.start)

    def _search(self, _args, result, _span, _pre):
        self._count("graph.search.evaluations", result.evaluations)

    def _cosearch(self, _args, result, _span, _pre):
        self._count("parallel.cosearch.evaluations", result.evaluations)
        self._count("parallel.cosearch.reverted", int(result.reverted))

    # -- install / restore ------------------------------------------------ #
    def _sites(self):
        """(owner, attribute, replacement) for every wrapped import site."""
        from repro.graph.dependency import DependencyGraph

        # Packages re-export functions named like their modules (the
        # ``cosearch`` function shadows its module on ``repro.parallel``),
        # so every module is taken from the import system directly.
        certify, compare, rewriter, search, cosearch_mod, frontend, store = (
            importlib.import_module(f"repro.{name}")
            for name in (
                "check.certify", "graph.compare", "graph.rewriter", "graph.search",
                "parallel.cosearch", "serve.frontend", "serve.store",
            )
        )
        from_trace = DependencyGraph.__dict__["from_trace"].__func__

        def search_entry(task) -> str:
            return ScheduleKey.from_dict(task[1]).digest()

        sites = [
            (ScheduleService, "get_schedule", self._wrap_request(ScheduleService.get_schedule)),
            (ScheduleCache, "get", self._wrap("serve.cache", ScheduleCache.get, after=self._cache_get)),
            (ScheduleCache, "put", self._wrap("serve.cache", ScheduleCache.put)),
            (ScheduleStore, "get", self._wrap(
                "serve.store.get", ScheduleStore.get,
                digest_of=lambda _s, key, **_kw: key.digest(),
                before=self._store_get_before, after=self._store_get)),
            (ScheduleStore, "put", self._wrap(
                "serve.store.put", ScheduleStore.put,
                digest_of=lambda _s, key, _sched: key.digest(), after=self._store_put)),
            (store, "load_schedule", self._wrap("trace.io.load", store.load_schedule, after=self._load)),
            (store, "save_schedule", self._wrap("trace.io.save", store.save_schedule)),
            (frontend, "_search_to_store", self._wrap(
                "serve.search", frontend._search_to_store, digest_of=search_entry)),
            (compare, "record_case", self._wrap("graph.compare.record", compare.record_case)),
            (compare, "compile_trace", self._wrap("trace.compiled", compare.compile_trace)),
            (DependencyGraph, "from_trace", classmethod(self._wrap("graph.dependency", from_trace))),
            (rewriter, "rewrite_schedule", self._wrap("graph.rewriter", rewriter.rewrite_schedule)),
            (rewriter, "validate_schedule", self._wrap("sched.validate", rewriter.validate_schedule)),
            (cosearch_mod, "cosearch", self._wrap(
                "parallel.cosearch", cosearch_mod.cosearch, after=self._cosearch)),
            (certify, "certify_schedule", self._wrap("check.certify", certify.certify_schedule)),
        ]
        for mod in (rewriter, search, cosearch_mod):
            sites.append((mod, "list_schedule", self._wrap("graph.scheduler", mod.list_schedule)))
        for mod in (search, compare):
            sites.append((mod, "search_order", self._wrap(
                "graph.search", mod.search_order, after=self._search)))
        return sites

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, name, replacement in self._sites():
                saved.append((owner, name, owner.__dict__[name]))
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- results ---------------------------------------------------------- #
    def self_times(self, phase: str) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        spans = [s for s in self.spans if s.phase == phase]
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def layer_metrics(self, traced, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the measured phase, as ``name -> (value, unit)``.

        ``traced`` holds the traced passes' results; ``overhead`` is their
        time in requests over the untraced passes', minus one.
        """
        traced_wall = sum(r.wall_s for r in traced)
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        own = self.self_times("measure")
        for s in self.spans:
            if s.phase == "measure":
                self_s[s.layer] += own[s.id]
                calls[s.layer] += 1
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_pct"] = (100.0 * self_s[layer] / traced_wall, "%")
        # One client: a memory-tier request is a cache hit, and every other
        # request puts a new schedule, which evicts once the cache is full.
        requests = sum(len(r.tiers) for r in traced)
        hits = sum(r.tiers.count("memory") for r in traced)
        evictions = sum(max(0, len(r.tiers) - r.tiers.count("memory") - CACHE_CAPACITY)
                        for r in traced)
        c = self.counts
        out.update({
            "serve.frontend.failed": (c["serve.frontend.failed"], "count"),
            "serve.cache.hit_rate": (hits / requests, "ratio"),
            "serve.cache.evictions": (evictions, "count"),
            "serve.cache.get_p50_s": (statistics.median(self.durations["serve.cache.get"]), "s"),
            "serve.store.get.failed": (c["serve.store.get.failed"], "count"),
            "serve.store.put.object_bytes": (c["serve.store.put.object_bytes"], "bytes"),
            "trace.io.load.p50_s": (statistics.median(self.durations["trace.io.load"]), "s"),
            "graph.search.evaluations": (c["graph.search.evaluations"], "count"),
            "parallel.cosearch.evaluations": (c["parallel.cosearch.evaluations"], "count"),
            "parallel.cosearch.reverted": (c["parallel.cosearch.reverted"], "count"),
            "traced_wall_s": (traced_wall, "s"),
            "unattributed_s": (traced_wall - sum(self_s.values()), "s"),
            "trace_overhead": (overhead, "ratio"),
        })
        return out

    def write_chrome_trace(self, path, meta: dict) -> None:
        """All spans as Chrome trace-event JSON; set-up and measured phase are
        separate process tracks, one thread track per OS thread."""
        phases = {"setup": 1, "measure": 2}
        threads: dict[int, int] = {}
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {"ph": "M", "name": "process_name", "pid": pid, "args": {"name": phase}}
            for phase, pid in phases.items()
        ]
        for s in self.spans:
            events.append({
                "name": s.layer, "ph": "X", "cat": s.phase,
                "pid": phases[s.phase], "tid": threads.setdefault(s.thread, len(threads) + 1),
                "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
                "args": {"span": s.id, "parent": s.parent, "request": s.request},
            })
        atomic_write_json(
            path,
            {"traceEvents": events, "provenance": provenance_stamp(), "meta": meta},
            indent=None,
        )
