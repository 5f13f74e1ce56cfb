"""In-process bounded LRU cache of hot schedules — dogfooding our own policy.

This repository *ships* cache-replacement engines (the array LRU/Belady
replays of :mod:`repro.trace.replay`); the serving layer's memory tier
runs on the same semantics.  :class:`ScheduleCache` is a bounded
digest → schedule map that evicts the least-recently-accessed entry —
exactly the recency rule of :func:`repro.trace.replay.lru_replay_trace`,
pinned by the regression suite: a cache driven by any access log produces
the same miss count at every capacity as the array LRU engine replaying
that log as a one-element-per-op trace (:func:`log_to_trace`).

The cache keeps counters, not a history: a caller that wants to replay
its requests keeps the log itself and feeds it to
:meth:`ScheduleCache.replay` and to the trace engines.  The Belady/MIN
yardstick for the same log is
:func:`~repro.trace.replay.belady_replay_trace` over that trace: its loads
are the fewest misses any cache of the capacity could take, so replaying
one log under both measures how much hit rate LRU leaves on the table
(benchmark E19), the paper's LRU-vs-OPT comparison turned on ourselves.
The bound is a hard invariant: ``len(cache) <= capacity`` always, checked
by the property suite.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..obs.probe import get_probe
from ..trace.compiled import CompiledTrace

def log_to_trace(log: Sequence[str]) -> CompiledTrace:
    """An access log as a one-read-per-op compiled trace.

    Each log entry (a digest string) becomes one op touching one element,
    read-only — the shape under which the array replay engines
    (:func:`~repro.trace.replay.lru_replay_trace`,
    :func:`~repro.trace.replay.belady_replay_trace`) count exactly the
    misses a digest-keyed cache of the same capacity takes on the same
    log.  The bridge the regression tests pin cache semantics across.
    """
    uniq: dict[str, int] = {}
    ids = np.fromiter(
        (uniq.setdefault(d, len(uniq)) for d in log), dtype=np.int64, count=len(log)
    )
    n, n_elem = len(log), max(len(uniq), 1)
    starts = np.arange(n + 1, dtype=np.int64)
    return CompiledTrace(
        matrices=("K",),
        shapes={"K": (1, n_elem)},
        elem_ids=ids,
        is_write=np.zeros(n, dtype=bool),
        op_starts=starts,
        op_read_ends=starts[1:].copy(),
        key_matrix=np.zeros(n_elem, dtype=np.int32),
        key_flat=np.arange(n_elem, dtype=np.int64),
        ops=None,
    )


class ScheduleCache:
    """A bounded digest → payload map with LRU eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- the access path ------------------------------------------------- #
    def get(self, digest: str) -> Any | None:
        """The cached payload, refreshing recency; ``None`` on a miss.

        Every ``get`` is one access.  A miss does *not* insert — pair it
        with :meth:`put` (which, after a ``get`` miss, completes the
        classic miss-then-load shape the trace engines count as a single
        load).
        """
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return entry

    def put(self, digest: str, payload: Any) -> None:
        """Insert (or refresh) ``digest``, evicting down to the bound.

        ``put`` is the load completing a miss, not a second access, so a
        ``get``/``put``-on-miss caller makes exactly one access per
        request — the contract the replay cross-checks assume.
        """
        if digest in self._entries:
            self._entries[digest] = payload
            self._entries.move_to_end(digest)
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            probe = get_probe()
            if probe.enabled:
                probe.count("serve.evictions")
        self._entries[digest] = payload

    # -- offline replay -------------------------------------------------- #
    @classmethod
    def replay(cls, log: Sequence[str], capacity: int) -> "ScheduleCache":
        """Drive a fresh cache through ``log`` with the get/put-on-miss shape.

        The offline harness of benchmark E19: feed one recorded request
        log to the cache at many capacities and read
        ``hits``/``misses``/``evictions`` off the returned cache.
        """
        cache = cls(capacity)
        for digest in log:
            if cache.get(digest) is None:
                cache.put(digest, digest)
        return cache
