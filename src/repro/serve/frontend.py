"""Asyncio schedule-serving front end: coalesce, serve, fall through.

:class:`ScheduleService` is the "millions of users" tier of the
pipeline: many concurrent ``get_schedule(key)`` requests resolve against
four tiers, fastest first —

1. **memory** — a :class:`~repro.serve.cache.ScheduleCache` of hot
   schedules (``serve.hits``);
2. **in flight** — a request for a key whose search is running joins it
   (*single flight*): N concurrent requests for one cold key run
   **exactly one** search, all N get the same object, and the N−1 joins
   count as ``serve.coalesced``;
3. **disk** — the content-addressed :class:`~repro.serve.store.ScheduleStore`
   (``serve.store_hits``), read on the event loop and returned with no
   ``await`` after the lookup, so no request sees a hit half done or
   joins it; finally
4. **search** — a true miss (``serve.misses``) starts the key's one fill
   task, which queues its searcher pipeline (:data:`SEARCHERS`, chosen
   by ``key.policy``) on the :class:`repro.perf.pool.SearchPool` process
   pool when the service was built with ``workers > 0``, a thread
   otherwise.  The worker files the result in the store (atomic put),
   the front end reads it back and promotes it to memory, and every
   coalesced waiter wakes with it.

Only a miss leaves the loop (its search, and under a ``searcher=``
override its put), so the loop stays free to coalesce requests while a
search is in flight.  A disk read holds the loop for as long as it runs,
a ``verify_store`` read included.  On a thread the loop would still run
only at the interpreter's switch interval (5 ms by default), because the
read holds the interpreter lock for nearly all of its time.

Counters (``serve.{requests,hits,misses,coalesced,searches,store_hits,
evictions}`` plus ``serve.store.{puts,corrupt,stale}``) report into the
active probe *and* into plain attributes on the service, so the CLI can
print a stats table without a recording probe installed.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Iterable, Sequence

from ..errors import ConfigurationError
from ..obs.probe import get_probe, timed
from ..perf.pool import SearchPool, parallel_map
from ..sched.schedule import Schedule
from .cache import ScheduleCache
from .store import ScheduleKey, ScheduleStore

#: Annealing budgets of the searcher pipelines; serving-sized on purpose
#: (the store amortizes the search, so bigger budgets belong to offline
#: warming jobs that can afford them).
SEARCH_ITERS = 300
COSEARCH_ITERS = 200


def _case_graph(key: ScheduleKey):
    """The key's recorded case and its DAG.

    :func:`~repro.graph.compare.record_case` records on a counting machine
    (residency and capacity checked, no arithmetic), and no searcher reads
    the case's reference numerics, so a miss never computes them.
    """
    from ..graph.compare import record_case
    from ..graph.dependency import DependencyGraph

    case = record_case(key.kernel, key.n, key.m, key.s)
    return case, DependencyGraph.from_trace(case.trace)


def _seed_of(key: ScheduleKey) -> int:
    """Deterministic per-key RNG seed (the digest's leading 32 bits)."""
    return int(key.digest()[:8], 16)


def _search_heuristic(key: ScheduleKey) -> Schedule:
    """One-shot locality list schedule, dressed and validated."""
    from ..graph.rewriter import reschedule

    case, graph = _case_graph(key)
    return reschedule(case.trace, key.s, "locality", graph=graph).schedule


def _search_order(key: ScheduleKey) -> Schedule:
    """Annealed order search (relaxed reductions), dressed and validated."""
    from ..graph.rewriter import rewrite_schedule
    from ..graph.search import search_order

    case, graph = _case_graph(key)
    found = search_order(
        graph, key.s, "anneal",
        iters=SEARCH_ITERS, seed=_seed_of(key), relax_reductions=True,
    )
    return rewrite_schedule(
        case.trace, key.s, found.order, graph=graph, relax_reductions=True
    ).schedule


def _search_cosearch(key: ScheduleKey) -> Schedule:
    """Joint order × partition co-search; the winning *order* is stored.

    The persisted artifact is the explicit single-node stream of the
    winning order (the schedule container has no owner column);
    re-partitioning a served order across ``key.p`` nodes is a cheap
    one-shot — the expensive joint walk is what the store amortizes.
    """
    from ..graph.rewriter import rewrite_schedule
    from ..parallel.cosearch import cosearch

    case, graph = _case_graph(key)
    res = cosearch(
        graph, key.p, key.s,
        iters=COSEARCH_ITERS, seed=_seed_of(key),
        alpha=key.alpha, beta=key.beta, relax_reductions=True,
    )
    return rewrite_schedule(
        case.trace, key.s, list(res.order), graph=graph, relax_reductions=True
    ).schedule


#: ``key.policy`` → searcher pipeline (key → searched, validated Schedule).
SEARCHERS: dict[str, Callable[[ScheduleKey], Schedule]] = {
    "heuristic": _search_heuristic,
    "search": _search_order,
    "cosearch": _search_cosearch,
}


def run_searcher(key: ScheduleKey) -> Schedule:
    """Run the searcher pipeline ``key.policy`` names."""
    searcher = SEARCHERS.get(key.policy)
    if searcher is None:
        raise ConfigurationError(
            f"unknown serving policy {key.policy!r}; "
            f"choose from {', '.join(SEARCHERS)}"
        )
    return searcher(key)


def _search_to_store(task: tuple[str, dict]) -> str:
    """Worker-side miss handler: search ``key``, file it, return the digest.

    Module-level and addressed by plain ``(root, key dict)`` tuples so it
    crosses process boundaries; the schedule itself never does — workers
    write through the store's atomic put and the parent reads back from
    disk, which doubles as an end-to-end container round-trip.
    """
    root, key_dict = task
    key = ScheduleKey.from_dict(key_dict)
    return ScheduleStore(root).put(key, run_searcher(key))


def warm_store(
    store: ScheduleStore,
    keys: Iterable[ScheduleKey],
    *,
    jobs: int = 1,
    force: bool = False,
) -> list[ScheduleKey]:
    """Search-and-file every missing key; returns the keys actually searched.

    The offline batch path (``python -m repro serve warm``): misses fan
    out over :func:`repro.perf.pool.parallel_map` — one searcher run per
    worker task, results landing in the store via atomic puts, so a
    crashed warm run leaves only whole entries.  A key is present only
    when the object at its path holds it in its header (``key in store``,
    one header read): an object in an older format or a torn one yields
    no key, and one copied over another key's path holds that key, so
    all three are searched and rewritten like missing ones.
    ``force=True`` re-searches keys already present (e.g. after a
    searcher budget change).
    """
    todo = [k for k in keys if force or k not in store]
    parallel_map(_search_to_store, [(store.root, k.as_dict()) for k in todo], jobs=jobs)
    probe = get_probe()
    if probe.enabled and todo:
        probe.count("serve.searches", len(todo))
    return todo


class ScheduleService:
    """The async front end over one store + one in-process cache.

    A request resolves memory → in-flight search → disk → search (module
    docstring), and only a miss's fill leaves the event loop: its search
    runs on a thread, or with ``workers > 0`` on a
    :class:`~repro.perf.pool.SearchPool` process pool, which is created
    lazily and must be released with :meth:`close` (or ``async with``).
    ``searcher`` overrides the per-key :data:`SEARCHERS` dispatch with one
    callable (test seam; it and the put of its result run on a thread).
    """

    def __init__(
        self,
        store: ScheduleStore,
        cache: ScheduleCache | None = None,
        *,
        searcher: Callable[[ScheduleKey], Schedule] | None = None,
        workers: int = 0,
        verify_store: bool = False,
    ):
        self.store = store
        self.cache = cache
        self.searcher = searcher
        #: statically certify every schedule fetched from disk before
        #: serving it (see :meth:`ScheduleStore.get`); an invalid object
        #: is a miss and the fall-through search repairs it.
        self.verify_store = verify_store
        self._pool = SearchPool(workers) if workers > 0 else None
        self._inflight: dict[str, asyncio.Future] = {}
        self.requests = 0
        self.hits = 0
        self.store_hits = 0
        self.misses = 0
        self.coalesced = 0
        self.searches = 0

    async def __aenter__(self) -> "ScheduleService":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()

    def _count(self, stat: str, probe_name: str) -> None:
        setattr(self, stat, getattr(self, stat) + 1)
        probe = get_probe()
        if probe.enabled:
            probe.count(probe_name)

    # -- the serving path ------------------------------------------------ #
    async def get_schedule(self, key: ScheduleKey) -> Schedule:
        """Resolve ``key``: memory → in-flight search → disk → search."""
        digest = key.digest()
        self._count("requests", "serve.requests")
        if self.cache is not None:
            hit = self.cache.get(digest)
            if hit is not None:
                self._count("hits", "serve.hits")
                return hit
        existing = self._inflight.get(digest)
        if existing is not None and not existing.done():
            self._count("coalesced", "serve.coalesced")
            return await asyncio.shield(existing)
        # A disk hit is read here, on the loop, with no await between the
        # lookup and the return, so no other request sees it half done.
        schedule = self.store.get(key, verify=self.verify_store)
        if schedule is not None:
            self._count("store_hits", "serve.store_hits")
            if self.cache is not None:
                self.cache.put(digest, schedule)
            return schedule
        # Single flight: the fill runs as its own task so a cancelled
        # requester never kills the search its coalesced peers wait on.
        task = asyncio.get_running_loop().create_task(self._fill(key, digest))
        self._inflight[digest] = task
        return await asyncio.shield(task)

    async def _fill(self, key: ScheduleKey, digest: str) -> Schedule:
        try:
            self._count("misses", "serve.misses")
            with timed("serve.search"):
                schedule = await self._search(key)
            self._count("searches", "serve.searches")
            if self.cache is not None:
                self.cache.put(digest, schedule)
            return schedule
        finally:
            self._inflight.pop(digest, None)

    async def _search(self, key: ScheduleKey) -> Schedule:
        loop = asyncio.get_running_loop()
        if self.searcher is not None:
            schedule = await loop.run_in_executor(None, self.searcher, key)
            await loop.run_in_executor(None, self.store.put, key, schedule)
            return schedule
        task = (self.store.root, key.as_dict())
        if self._pool is not None:
            # The worker files the schedule itself (atomic put); only the
            # digest crosses the process boundary, never the object graph.
            await asyncio.wrap_future(self._pool.submit(_search_to_store, task))
        else:
            await loop.run_in_executor(None, _search_to_store, task)
        schedule = self.store.get(key, verify=self.verify_store)
        if schedule is None:  # pragma: no cover - defensive
            raise ConfigurationError(
                f"search for {key} completed but left no readable store entry"
            )
        return schedule

    # -- reporting ------------------------------------------------------- #
    def stats_snapshot(self) -> dict:
        """The service's own counters (probe-independent) as one dict."""
        snap = {
            "requests": self.requests,
            "hits": self.hits,
            "store_hits": self.store_hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "searches": self.searches,
        }
        if self.cache is not None:
            snap["cache_entries"] = len(self.cache)
            snap["cache_evictions"] = self.cache.evictions
        return snap
