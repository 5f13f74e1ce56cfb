"""The serve-path workloads, the one-client request loop and its output checks.

Every workload is a closed loop with **one client**: schedule consumers
are out-of-core kernel runs that block on their schedule, so each caller
waits for its reply before it sends the next request.  The service runs
with ``workers=0`` (the CLI default), so no process pool starts, and the
memory cache holds :data:`CACHE_CAPACITY` schedules.

A run is a fixed number of *passes*; a pass sends one seeded request
list through a fresh :class:`~repro.serve.ScheduleService`.  The pass
count follows from ``--seconds`` and :data:`PASS_SECONDS`, not from the
clock, so a faster commit does the same work as its parent and the two
are compared sample for sample.
"""

from __future__ import annotations

import asyncio
import importlib
import random
import time
import traceback
from dataclasses import dataclass, field

from repro.check.certify import certify_schedule
from repro.core.bounds import cholesky_lower_bound, syrk_lower_bound
from repro.core.syr2k import syr2k_lower_bound
from repro.serve import ScheduleCache, ScheduleKey, ScheduleService, ScheduleStore

M, S = 6, 15
CACHE_CAPACITY = 3
ZIPF_A = 1.1
#: Measured length of one pass of every workload on a 2-core x86 host
#: (py3.11, numpy 2.4); the workloads are sized to it.
PASS_SECONDS = 3.0

#: Modules the serve front end imports lazily on its first miss (and
#: ``get(verify=True)``).  Set-up imports them so that no request pays it.
LAZY_SERVE_MODULES = (
    "repro.graph.compare",
    "repro.graph.dependency",
    "repro.graph.rewriter",
    "repro.graph.search",
    "repro.parallel.cosearch",
    "repro.check.certify",
)


def import_serve_path() -> None:
    for name in LAZY_SERVE_MODULES:
        importlib.import_module(name)


@dataclass(frozen=True)
class Workload:
    name: str
    keys: tuple[ScheduleKey, ...]
    #: requests per pass of a zipf stream over ``keys``, served from a
    #: store filled during set-up; 0 sends every key once to an empty store.
    stream_len: int = 0

    @property
    def warm(self) -> bool:
        return self.stream_len > 0

    def pass_streams(self, seed: int, seconds: float) -> list[list[ScheduleKey]]:
        """One request list per pass; the same seed gives the same lists.

        A cold pass sends every key once, in an order the seed shuffles.
        Every warm pass sends one fixed sequence of zipf ranks, and the
        seed decides which key holds each rank in each pass.  The LRU cache
        sees only the rank sequence, so every pass of every seed gets the
        same memory/disk split: when the seed shuffled the requests
        themselves, the disk hits per run ranged over 5%, and ``wall_s``
        with them.
        """
        rng = random.Random(seed)
        counts = zipf_counts(len(self.keys), self.stream_len, ZIPF_A)
        ranks = [rank for rank, c in enumerate(counts) for _ in range(c)]
        random.Random(0).shuffle(ranks)  # part of the workload, like its keys
        streams = []
        for _ in range(max(1, round(seconds / PASS_SECONDS))):
            if self.warm:
                holders = list(self.keys)
                rng.shuffle(holders)
                stream = [holders[rank] for rank in ranks]
            else:
                stream = list(self.keys)
                rng.shuffle(stream)
            streams.append(stream)
        return streams


def zipf_counts(n_keys: int, total: int, a: float) -> list[int]:
    """Per-rank request counts that follow zipf(``a``) exactly (largest remainder).

    Drawing ranks i.i.d. would let the seed change how many requests the
    heavy keys get, and with it ``wall_s`` by ~7% at 400 requests.
    """
    weights = [1.0 / (rank + 1) ** a for rank in range(n_keys)]
    quota = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quota]
    for i in sorted(range(n_keys), key=lambda i: counts[i] - quota[i])[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _keys(kernels, sizes, **kw) -> tuple[ScheduleKey, ...]:
    return tuple(ScheduleKey(k, n, M, S, **kw) for n in sizes for k in kernels)


KERNELS = ("tbs", "syr2k", "chol")

#: Why each workload exists is stated in BENCHMARK.json.  Sizes keep a
#: 12 s run under ~45 s on a 2-core x86 host even when neighbouring tenants
#: halve its speed.  Cold keys are odd in number, so the median miss is
#: one key's latency.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-heuristic",
            _keys(KERNELS, (32, 40)) + _keys(("tbs",), (56,)),
        ),
        Workload(
            "cold-search",
            _keys(KERNELS, (24,), policy="search")
            + (
                ScheduleKey("tbs", 24, M, S, p=4, policy="cosearch"),
                ScheduleKey("chol", 16, M, S, p=2, policy="cosearch"),
            ),
        ),
        # Nine keys whose stored schedules take within ~15% of the same
        # time to read: the seed then decides which key each disk hit
        # reads but barely what it costs.  With N in {16, 24, 32} a disk
        # hit cost 20-170 ms and the median fell between two keys.
        Workload(
            "warm-read",
            tuple(
                ScheduleKey(k, n, M, S)
                for k, n in (
                    ("tbs", 26), ("syr2k", 15), ("chol", 22), ("tbs", 27), ("syr2k", 16),
                    ("chol", 23), ("tbs", 28), ("chol", 24), ("tbs", 29),
                )
            ),
            stream_len=200,
        ),
    )
}


def exact_bound(key: ScheduleKey) -> float:
    """The paper's exact I/O lower bound for ``key``'s computation."""
    if key.kernel == "tbs":
        return syrk_lower_bound(key.n, key.m, key.s, form="exact")
    if key.kernel == "syr2k":
        return syr2k_lower_bound(key.n, key.m, key.s, form="exact")
    return cholesky_lower_bound(key.n, key.s, form="exact")


class OutputCheck:
    """Checks every served schedule, outside the timed region.

    The first schedule served for a key is certified at the key's
    capacity and its loads must reach the exact bound; every later
    response for the key must have the same ``io_volume()``.
    """

    def __init__(self):
        self.volume: dict[ScheduleKey, tuple[int, int]] = {}
        self.bound: dict[ScheduleKey, float] = {}

    def failure(self, key: ScheduleKey, schedule) -> str | None:
        """Why ``schedule`` fails its check for ``key``, or None if it passes."""
        try:
            ok = self._accept(key, schedule)
        except Exception:  # a malformed schedule fails its check; the run goes on
            return traceback.format_exc()
        return None if ok else f"{key}: served schedule failed its output check"

    def _accept(self, key: ScheduleKey, schedule) -> bool:
        volume = schedule.io_volume()
        if key in self.volume:
            return volume == self.volume[key]
        bound = exact_bound(key)
        ok = certify_schedule(schedule, key.s).ok and volume[0] >= bound
        self.volume[key], self.bound[key] = volume, bound
        return ok

    def io_over_bound(self) -> float:
        """Σ loads of the distinct keys served / Σ of their exact bounds."""
        return sum(v[0] for v in self.volume.values()) / sum(self.bound.values())


@dataclass
class PassResult:
    tiers: list[str] = field(default_factory=list)
    #: ``time.perf_counter()`` when each request was sent.
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Time the pass spent in ``get_schedule``: one client never overlaps."""
        return sum(self.latencies)


async def _client(service, cache, store, stream, check, out: PassResult) -> None:
    for key in stream:
        # The tier is read from outside before sending, never from the
        # service's own counters.
        if key.digest() in cache:
            tier = "memory"
        elif key in store:
            tier = "disk"
        else:
            tier = "miss"
        t0 = time.perf_counter()
        try:
            schedule, error = await service.get_schedule(key), None
        except Exception:  # a failed request is counted; the loop goes on
            schedule, error = None, traceback.format_exc()
        out.latencies.append(time.perf_counter() - t0)
        out.starts.append(t0)
        out.tiers.append(tier)
        if error is None:
            error = check.failure(key, schedule)
        if error is not None:
            out.failed += 1
            out.errors.append(error)


def run_pass(store_root: str, stream: list[ScheduleKey], check: OutputCheck) -> PassResult:
    """Send ``stream`` through a fresh one-client service over ``store_root``."""
    store = ScheduleStore(store_root)
    cache = ScheduleCache(CACHE_CAPACITY)
    service = ScheduleService(store, cache, workers=0)
    out = PassResult()
    try:
        asyncio.run(_client(service, cache, store, stream, check, out))
    finally:
        service.close()
    return out
