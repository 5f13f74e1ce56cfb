"""Array-based cache replays over a :class:`~repro.trace.compiled.CompiledTrace`.

Every count equals the tuple-walking LRU and MIN caches that the test
suite keeps as oracles (``tests/replay_oracles.py``), and each call shape
has exactly one engine:

* **LRU, any capacity or sweep** — reuse distances
  (:func:`_reuse_distances`, one capacity-independent pass cached per
  trace).  By the inclusion property an access hits at capacity ``C`` iff
  fewer than ``C`` distinct other elements were touched since its previous
  access, so loads and the eviction/flush split of stores are O(n) array
  passes per capacity.
* **Belady/MIN, one capacity or a sweep** (:func:`belady_replay_trace`,
  :func:`sweep_replay_trace`) — one grouped OPT-stack pass over the
  requested capacities below the trace's live peak
  (:func:`_belady_buckets`), then an O(n) count per capacity.  At or
  above the live peak only cold accesses miss, so those capacities need
  no pass: one O(n) pass per trace leaves O(1) per capacity
  (:func:`_belady_counts_above_peak`).  One capacity is the one-point
  sweep.
* **Incremental LRU** — :class:`LruCursor` replays an order op by op, for
  the order searches.  :class:`LruLedger` re-costs a changed
  ``(order, owner)`` pair from per-op loads and keeps no cache state: by
  the same inclusion property, a replayed node reads its start state off
  its last ``capacity`` distinct elements before the change and stops
  once its accesses after the change cover ``capacity`` distinct
  elements, where it has rejoined the committed replay.

Every entry point takes its capacity through :func:`as_capacity`.  Store
accounting matches the oracles: dirty evictions count as stores
(``evict_stores``) and dirty elements still resident at the end are
flushed; ``stores`` is the sum of both.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..obs.probe import get_probe
from .compiled import CompiledTrace

@dataclass(frozen=True)
class LruReplayResult:
    """Outcome of replaying a schedule's compute ops under LRU."""

    capacity: int
    loads: int           # cold + capacity misses (elements moved in)
    stores: int          # dirty evictions + dirty elements at the end
    n_accesses: int      # total element touches
    distinct: int        # distinct elements touched (cold-miss floor)
    evict_stores: int = 0  # the eviction-writeback part of ``stores``

    @property
    def q(self) -> int:
        return self.loads

    @property
    def miss_rate(self) -> float:
        return self.loads / self.n_accesses if self.n_accesses else 0.0


class BeladyReplayResult(LruReplayResult):
    """Outcome of replaying an op order under MIN-optimal replacement.

    Same shape and conventions as the LRU result (loads, stores,
    n_accesses, distinct, ``q``, ``miss_rate``) — the policies differ, the
    accounting does not.
    """


def as_capacity(capacity) -> int:
    """``capacity`` as a plain ``int >= 1``, else :class:`ConfigurationError`.

    Integers of any type pass (numpy ints included, via
    :func:`operator.index`); ``bool``, floats and strings are rejected
    rather than truncated or rounded.
    """
    try:
        value = operator.index(capacity)
    except TypeError:
        value = None
    if value is None or isinstance(capacity, bool):
        raise ConfigurationError(f"capacity must be an integer, got {capacity!r}")
    if value < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {value}")
    return value


#: Base level of the reuse-distance merge tree: prefixes shorter than
#: ``2 ** _RANK_BASE_BITS`` are counted with shifted vector compares,
#: longer spans with sorted aligned blocks + binary search.
_RANK_BASE_BITS = 5


def _reuse_distances(trace: CompiledTrace) -> np.ndarray:
    """LRU stack distance of every access (capacity-independent), -1 if cold.

    ``dist[p]`` is the number of distinct *other* elements touched since
    the previous access of ``elem_ids[p]`` — the access is an LRU hit at
    capacity ``C`` iff ``0 <= dist[p] < C`` (the inclusion property, so one
    pass serves every capacity).  Let ``prev`` be the previous-access
    links; since ``prev[x] < x`` always, ::

        dist[p] = #{prev[p] < x < p : prev[x] <= prev[p]}
                = #{x < p : prev[x] <= prev[p]}  -  (prev[p] + 1)

    (every ``x <= prev[p]`` qualifies trivially), which turns the window
    count into a pure dominance count.  That is evaluated with an
    aligned-block merge tree: the prefix ``[0, p)`` decomposes into
    ``O(log n)`` power-of-two blocks; per level one vectorized ``np.sort``
    of block-major keys and one batched ``np.searchsorted`` answer all
    queries, with the sub-``2**_RANK_BASE_BITS`` tail handled by shifted
    elementwise compares.
    """
    cached = trace._replay_cache.get("lru_dist")
    if cached is not None:
        return cached
    n = trace.n_accesses
    prev = trace.prev_access()
    cnt = np.zeros(n, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    base = 1 << _RANK_BASE_BITS
    for j in range(1, min(base, n)):
        cnt[j:] += (prev[:-j] <= prev[j:]) & ((pos[j:] & (base - 1)) >= j)
    if n > base:
        span = np.int64(n + 2)
        shifted = prev + 1  # -1 (cold) becomes 0: still <= every real link
        for k in range(_RANK_BASE_BITS, int(n - 1).bit_length()):
            keys = (pos >> k) * span + shifted
            keys_sorted = np.sort(keys)
            qmask = ((pos >> k) & 1) == 1
            qb = (pos[qmask] >> k) - 1  # the left sibling block (even index)
            loc = np.searchsorted(
                keys_sorted, qb * span + shifted[qmask], side="right"
            )
            cnt[qmask] += loc - (qb << k)
    dist = cnt - prev - 1
    dist[prev < 0] = -1
    trace._replay_cache["lru_dist"] = dist
    return dist


def _element_runs(trace: CompiledTrace):
    """(order, writes_sorted, run_lengths) with accesses grouped by element."""
    cached = trace._replay_cache.get("elem_runs")
    if cached is not None:
        return cached
    order = np.argsort(trace.elem_ids, kind="stable")
    writes_sorted = trace.is_write[order]
    run_lengths = np.bincount(trace.elem_ids, minlength=trace.n_elements)
    artifacts = (order, writes_sorted, run_lengths)
    trace._replay_cache["elem_runs"] = artifacts
    return artifacts


def _distinct_count(sorted_values: np.ndarray) -> int:
    """Number of distinct entries of a non-decreasing array."""
    if not sorted_values.size:
        return 0
    return 1 + int((np.diff(sorted_values) != 0).sum())


def _lru_counts_from_distances(trace: CompiledTrace, capacity: int) -> tuple[int, int, int]:
    """(loads, evict_stores, flush_stores) from the reuse-distance artifacts.

    Stores need no simulation either: every miss opens a *residency
    segment* of its element, each segment containing a write costs exactly
    one store, and the store is a final flush (rather than an eviction
    writeback) iff the segment is the element's last and fewer than
    ``capacity`` distinct elements are touched after the element's final
    access (the inclusion property again, forward in time).
    """
    dist = _reuse_distances(trace)
    miss = (dist < 0) | (dist >= capacity)
    loads = int(miss.sum())
    order, writes_sorted, run_lengths = _element_runs(trace)
    # Segment IDs: cumulative misses in element-grouped order.  Every run
    # starts with its element's cold miss, so IDs never straddle elements.
    seg = np.cumsum(miss[order])
    stores = _distinct_count(seg[writes_sorted])
    if not stores:
        return loads, 0, 0
    # Flush split: the element's last access (end of its run) survives to
    # the end iff the number of distinct elements accessed after it —
    # i.e. *final* accesses at later positions — stays below capacity.
    run_ends = np.cumsum(run_lengths) - 1
    last_positions = order[run_ends]
    is_final = trace.next_use() == trace.n_accesses
    finals_at_or_after = np.cumsum(is_final[::-1])[::-1]
    survives = (finals_at_or_after[last_positions] - 1) < capacity
    # A write access belongs to a flushed segment iff its segment is its
    # element's last one and the element survives; -1 marks "none".
    flushable_seg = np.repeat(np.where(survives, seg[run_ends], -1), run_lengths)
    flush = _distinct_count(seg[writes_sorted & (seg == flushable_seg)])
    return loads, stores - flush, flush


# --------------------------------------------------------------------- #
# Belady/MIN: the grouped OPT stack
# --------------------------------------------------------------------- #
#
# Belady/MIN obeys the same inclusion property as LRU: the cache of
# capacity C is always the top C entries of one priority stack (Mattson's
# OPT stack, ordered by "will be evicted latest"), so the access is a hit
# at capacity C iff its current stack depth is < C.  Simulating the full
# stack exactly costs O(depth) per access, but a capacity *sweep* never
# needs exact depths — only which two sweep capacities the depth falls
# between.  So the stack is kept *partitioned at the sweep capacities*:
# group i holds the elements at depths [caps[i-1], caps[i]) as a bag with
# max-by-next-use extraction (a lazy-deletion heap of packed
# ``(n - next_use) << id_bits | elem`` ints).  One access then touches at
# most ``len(caps)`` groups:
#
# * the accessed element jumps to depth 0 (insert into group 0);
# * every full group above its old group overflows by one, and the
#   element leaving a group is always its *furthest-next-use* member —
#   the OPT stack's defining property — possibly the element that just
#   cascaded in (then the group's membership is unchanged);
# * the chain stops in the old group (a hit: net membership change zero)
#   or below the last group (a miss deeper than the largest sweep
#   capacity: the overflow is simply dropped — depths beyond
#   ``max(caps)`` can never influence the tracked prefix).
#
# Next-use stamps are unique except at "never used again" (= n), and
# those ties are *inert*: evicting one never-reused element versus
# another cannot change any later hit/miss (Belady's optimality is
# tie-break independent), so any deterministic pop order yields the
# oracle's exact counts — pinned by the cross-checks in the test suite.
#
# Only capacities below the trace's *live peak* (:func:`_live_peak`) need
# the stack at all: at or above it only cold accesses miss
# (:func:`_belady_counts_above_peak`).


def _live_peak(trace: CompiledTrace) -> int:
    """The most elements that must be resident at once for every reuse to hit.

    Right after access ``p`` the cache must hold each element accessed at
    or before ``p`` and used again after it — ``cumsum(nxt < n) -
    cumsum(prev >= 0)``, since each access with a later use opens a reuse
    interval and each reuse closes one — plus the element just accessed
    when no interval holds it (``nxt == n``).  At any capacity at or above
    the maximum, a miss always finds a resident element with no later use,
    which Belady evicts first, so only cold accesses miss; at one less,
    some reuse misses.  Cached per trace; 0 for an empty trace.
    """
    peak = trace._replay_cache.get("live_peak")
    if peak is None:
        n = trace.n_accesses
        nxt = trace.next_use()
        live = np.cumsum(nxt < n) - np.cumsum(trace.prev_access() >= 0) + (nxt == n)
        peak = int(live.max()) if n else 0
        trace._replay_cache["live_peak"] = peak
    return peak


def _belady_buckets(trace: CompiledTrace, caps: tuple[int, ...]) -> np.ndarray:
    """Per-access OPT hit buckets against sorted, distinct capacities.

    ``bucket[p]`` is the index of the smallest capacity in ``caps`` at
    which access ``p`` is a Belady hit, or ``len(caps)`` if it misses at
    every one (cold, or deeper than ``max(caps)``).  One OPT-stack pass,
    counted as ``replay.belady.sweep_one_pass`` — the Belady analogue of
    :func:`_reuse_distances`.  Callers pass only the capacities below the
    live peak.  Stored in the smallest unsigned dtype that holds
    ``len(caps)`` (one byte per access up to 255 capacities), so a pool
    task ships it cheaply.  Not cached.
    """
    probe = get_probe()
    if probe.enabled:
        probe.count("replay.belady.sweep_one_pass")
    n = trace.n_accesses
    n_elem = trace.n_elements
    m = len(caps)
    id_bits = max(1, n_elem - 1).bit_length()
    id_mask = (1 << id_bits) - 1
    # every access's packed heap entry, cached per trace
    entries_l = trace._replay_cache.get("opt_entries")
    if entries_l is None:
        entries_l = (((n - trace.next_use()) << id_bits) | trace.elem_ids).tolist()
        trace._replay_cache["opt_entries"] = entries_l
    heappush, heappop, heappushpop = heapq.heappush, heapq.heappop, heapq.heappushpop

    group_of = [-1] * n_elem     # current group per element (-1: untracked)
    cur = [0] * n_elem           # the entry the element entered its group with
    heaps: list[list[int]] = [[] for _ in range(m)]
    sizes = [0] * m
    caps_sz = [caps[0]] + [caps[i] - caps[i - 1] for i in range(1, m)]
    fill = 0  # first group that is not full yet (fills monotonically)
    bucket = [0] * n

    def extract_max(j: int) -> tuple[int, int]:
        """Pop group ``j``'s valid furthest-next-use (entry, element).

        Pure lazy deletion: every stale entry (an element re-accessed or
        moved since its push) is popped at most once, so the waded-through
        garbage is amortized O(1) per push; heap memory is O(accesses)
        ints — the same order as the trace arrays themselves.
        """
        h = heaps[j]
        while True:
            entry = heappop(h)
            e = entry & id_mask
            if group_of[e] == j and cur[e] == entry:
                return entry, e

    # Two fast paths keep the cascade off the heaps almost always:
    #
    # * *peek pass-through*: if the carry is already the furthest-next-use
    #   member of the next group, push-then-extract would hand it right
    #   back — compare against the group's (stale-cleared) top instead and
    #   let it fall through untouched;
    # * *never-again sink*: a carry with no future use (packed entry
    #   ``<= id_mask``) is at least tied for furthest in *every* group and
    #   ties are inert, so it passes every full group and lands directly
    #   in the first non-full one — ``fill`` — or drops off the end.

    def sink_never_again(carry_entry: int, carry_e: int) -> None:
        nonlocal fill
        if fill >= m:
            group_of[carry_e] = -1  # fell below max(caps): drop
            return
        group_of[carry_e] = fill
        heappush(heaps[fill], carry_entry)
        sizes[fill] += 1
        if sizes[fill] == caps_sz[fill]:
            fill += 1

    def peek_valid_top(j: int) -> int:
        h = heaps[j]
        top = h[0]
        while group_of[top & id_mask] != j or cur[top & id_mask] != top:
            heappop(h)
            top = h[0]
        return top

    for p in range(n):
        x = entries_l[p]
        e = x & id_mask
        g = group_of[e]
        if g == 0:
            # Hit in the top group: membership unchanged, refresh the
            # entry (the old heap entry goes stale via ``cur``).
            cur[e] = x
            heappush(heaps[0], x)
            continue  # bucket[p] stays 0
        if g < 0:
            bucket[p] = m
            cur[e] = x
            group_of[e] = 0
            if fill == 0:  # stack still growing: nothing overflows
                sizes[0] += 1
                heappush(heaps[0], x)
                if sizes[0] == caps_sz[0]:
                    fill = 1
                continue
            # group 0 full: its furthest member cascades (extracted before
            # the accessed element enters — it never carries at its own
            # access), so group 0's size is back to full immediately
            carry_entry, carry_e = extract_max(0)
            heappush(heaps[0], x)
            if carry_entry <= id_mask:
                sink_never_again(carry_entry, carry_e)
                continue
            j = 1
            while True:
                if j == m:
                    group_of[carry_e] = -1  # fell below max(caps): drop
                    break
                if sizes[j] < caps_sz[j]:  # the hole: j == fill
                    group_of[carry_e] = j
                    heappush(heaps[j], carry_entry)
                    sizes[j] += 1
                    if sizes[j] == caps_sz[j]:
                        fill = j + 1
                    break
                if carry_entry < peek_valid_top(j):
                    j += 1  # already the furthest member: pass through
                    continue
                group_of[carry_e] = j
                carry_entry = heappushpop(heaps[j], carry_entry)
                carry_e = carry_entry & id_mask
                if carry_entry <= id_mask:
                    sink_never_again(carry_entry, carry_e)
                    break
                j += 1
        else:
            bucket[p] = g
            # Hit in group g: every group above is full; each passes its
            # furthest-next-use member down, and group g absorbs the last
            # carry in exchange for the accessed element.
            carry_entry, carry_e = extract_max(0)
            cur[e] = x
            group_of[e] = 0
            heappush(heaps[0], x)
            j = 1
            while j < g and carry_entry > id_mask:
                if carry_entry < peek_valid_top(j):
                    j += 1  # already the furthest member: pass through
                    continue
                group_of[carry_e] = j
                carry_entry = heappushpop(heaps[j], carry_entry)
                carry_e = carry_entry & id_mask
                j += 1
            # a never-again carry passes the remaining groups (tied for
            # furthest everywhere, ties inert) and lands in the hole the
            # accessed element left behind
            group_of[carry_e] = g
            heappush(heaps[g], carry_entry)

    return np.asarray(bucket, dtype=np.min_scalar_type(m))


def _belady_counts_from_buckets(
    trace: CompiledTrace, bucket: np.ndarray, caps: tuple[int, ...], index: int
) -> tuple[int, int, int]:
    """(loads, evict_stores, flush_stores) at capacity ``caps[index]``.

    The miss mask is ``bucket > index``; stores reuse the LRU machinery
    (write-containing residency segments are policy-independent).  The
    flush/evict split needs one more fact: MIN evicts never-used-again
    elements first, clean before dirty (the tie-break that keeps
    eviction-time stores down).  Each eviction therefore pops the clean
    pool, then the dirty pool, then the elements with a later use — and
    because only *counts* matter (pool members are interchangeable:
    evicting one never-reused element vs another never changes later
    behavior, and every dirty-pool pop costs exactly one writeback), the
    pools reduce to two clipped counter walks.  A pool pop fails exactly
    where the walk ``(pushes - evictions)`` reaches a new running minimum
    below zero (one clip per unit of descent, and only evictions
    descend); clean-pool clips cascade into the dirty walk, dirty-pool
    clips continue to the elements with a later use.  Dirty elements
    still pooled at the end are the final flush.
    """
    n = trace.n_accesses
    capacity = caps[index]
    miss = bucket > index
    loads = int(miss.sum())
    order, writes_sorted, run_lengths = _element_runs(trace)
    seg = np.cumsum(miss[order])
    stores = _distinct_count(seg[writes_sorted])
    if not stores:
        return loads, 0, 0
    # Which elements end dirty-resident *if never evicted after their
    # final access*: their last residency segment contains a write.
    run_ends = np.cumsum(run_lengths) - 1
    final_seg = np.repeat(seg[run_ends], run_lengths)
    dirty_in_final = writes_sorted & (seg == final_seg)
    elem_sorted = trace.elem_ids[order]
    dirty_final = (
        np.bincount(elem_sorted[dirty_in_final], minlength=trace.n_elements) > 0
    )
    total_dirty = int(dirty_final.sum())
    rank = np.cumsum(miss)
    ev = miss & (rank > capacity)  # one eviction per miss once full
    if not ev.any():
        return loads, stores - total_dirty, total_dirty
    nxt = trace.next_use()
    is_final = nxt == n
    df_at = np.zeros(n, dtype=bool)
    df_at[is_final] = dirty_final[trace.elem_ids[is_final]]
    clean_push = is_final & ~df_at  # pool entries: clean finals ...
    dirty_push = df_at              # ... and dirty finals

    def _clips(push: np.ndarray, evs: np.ndarray) -> np.ndarray:
        # Walk value right after the eviction at p (evict before push).
        x = np.cumsum(push.astype(np.int64) - evs.astype(np.int64)) - push
        runmin = np.minimum.accumulate(x)
        newmin = np.empty(n, dtype=bool)
        newmin[0] = True
        newmin[1:] = runmin[1:] < runmin[:-1]
        return evs & newmin & (x < 0)

    clean_miss = _clips(clean_push, ev)          # clean pool was empty
    dirty_miss = _clips(dirty_push, clean_miss)  # dirty pool empty too
    dirty_pops = int(clean_miss.sum()) - int(dirty_miss.sum())
    flush = total_dirty - dirty_pops
    return loads, stores - flush, flush


def _belady_counts_above_peak(trace: CompiledTrace, capacity: int) -> tuple[int, int, int]:
    """(loads, evict_stores, flush_stores) at a capacity at or above the live peak.

    There only cold accesses miss, so each element has one residency
    segment: the loads are the distinct elements and the stores the
    written ones, each evicted dirty or flushed.  Every eviction finds a
    resident element with no later use (see :func:`_live_peak`), and MIN
    takes a clean one while there is one.  With ``R(p)`` the cold accesses
    up to ``p`` and ``F(p)`` the final accesses of never-written elements
    before ``p``, the evictions up to ``p`` number ``max(0, R(p) -
    capacity)``, so the clean candidates run out — and an eviction writes
    back — ``max(0, D - capacity)`` times, where ``D = max_p R(p) - F(p)``.
    One O(n) pass per trace (cached), then O(1) per capacity.
    """
    distinct, n_written, demand = _above_peak_stats(trace)
    dirty = max(0, demand - capacity)
    return distinct, dirty, n_written - dirty


def _above_peak_stats(trace: CompiledTrace) -> tuple[int, int, int]:
    """(distinct, written, D) of :func:`_belady_counts_above_peak`, cached."""
    stats = trace._replay_cache.get("above_peak")
    if stats is None:
        ids = trace.elem_ids
        written = np.zeros(trace.n_elements, dtype=bool)
        written[ids[trace.is_write]] = True
        cold = trace.prev_access() < 0
        clean_final = (trace.next_use() == trace.n_accesses) & ~written[ids]
        demand = np.cumsum(cold) - np.cumsum(clean_final) + clean_final
        stats = (
            int(np.count_nonzero(cold)),
            int(np.count_nonzero(written)),
            int(demand.max()) if ids.size else 0,
        )
        trace._replay_cache["above_peak"] = stats
    return stats


def _results(policy: str, trace: CompiledTrace, caps, counts) -> list[LruReplayResult]:
    """Result records for ``(loads, evict_stores, flush)`` per capacity.

    ``distinct`` counts the cold accesses: the elements this stream
    touches, which for a :meth:`~CompiledTrace.select_ops` sub-trace can
    be fewer than the interning's ``n_elements``.  Also emits the
    ``replay.<policy>.*`` probe counters, summed over the capacities.
    """
    cls = BeladyReplayResult if policy == "belady" else LruReplayResult
    distinct = int(np.count_nonzero(trace.prev_access() < 0))
    results = [
        cls(
            capacity=c,
            loads=loads,
            stores=evict_stores + flush,
            n_accesses=trace.n_accesses,
            distinct=distinct,
            evict_stores=evict_stores,
        )
        for c, (loads, evict_stores, flush) in zip(caps, counts)
    ]
    probe = get_probe()
    if probe.enabled:
        prefix = f"replay.{policy}"
        accesses = trace.n_accesses * len(results)
        misses = sum(r.loads for r in results)
        probe.count(f"{prefix}.replays", len(results))
        probe.count(f"{prefix}.accesses", accesses)
        probe.count(f"{prefix}.misses", misses)
        probe.count(f"{prefix}.hits", accesses - misses)
        probe.count(f"{prefix}.stores", sum(r.stores for r in results))
    return results


def lru_replay_trace(trace: CompiledTrace, capacity: int) -> LruReplayResult:
    """LRU replay of a compiled trace, counted from its reuse distances.

    The distances are computed once per trace and cached, so every further
    capacity costs one O(n) pass.
    """
    capacity = as_capacity(capacity)
    counts = _lru_counts_from_distances(trace, capacity)
    return _results("lru", trace, [capacity], [counts])[0]


def belady_replay_trace(trace: CompiledTrace, capacity: int) -> BeladyReplayResult:
    """Belady/MIN replay of a compiled trace at one capacity: the one-point
    :func:`sweep_replay_trace`.  Below the trace's live peak it costs one
    OPT-stack pass; at or above it only cold accesses miss, and the counts
    cost one O(n) pass per trace."""
    return sweep_replay_trace(trace, [capacity], policy="belady")[0]


def _sweep_task(task) -> list[tuple[int, int, int]]:
    """Counts for one chunk of a sweep's capacities (also a pool worker).

    For Belady, ``grid`` holds the sweep's distinct capacities below the
    live peak and ``bucket`` their :func:`_belady_buckets` (``None`` when
    there are none); for LRU ``grid`` is ``None`` and the reuse distances
    come from the trace's cache.
    """
    trace, grid, bucket, caps = task
    if grid is None:
        return [_lru_counts_from_distances(trace, c) for c in caps]
    return [
        _belady_counts_from_buckets(trace, bucket, grid, grid.index(c))
        if c in grid else _belady_counts_above_peak(trace, c)
        for c in caps
    ]


def _task_trace(trace: CompiledTrace, artifacts: list[str]) -> CompiledTrace:
    """``trace`` as a pool task carries it: its arrays, its next-use links
    and the cached ``artifacts``, without op objects, previous-access
    links or any other cached artifact (the OPT walk's packed entries
    alone pickle larger than the trace)."""
    return replace(
        trace,
        ops=None,
        _next_use=trace.next_use(),
        _prev_access=None,
        _replay_cache={name: trace._replay_cache[name] for name in artifacts},
    )


def sweep_replay_trace(
    trace: CompiledTrace,
    capacities,
    *,
    policy: str = "belady",
    jobs: int = 1,
) -> list[LruReplayResult]:
    """Replay one trace at many capacities; results in input order.

    The whole sweep is at most one pass: LRU classifies every capacity
    against the cached reuse distances, Belady against one grouped OPT
    stack pass over the distinct requested capacities below the live peak
    (:func:`_belady_buckets`, counted as ``replay.belady.sweep_one_pass``;
    none when every capacity is at or above the peak), leaving only an
    O(n) counting step per capacity, and O(1) at or above the peak.
    ``jobs > 1`` shards the capacity list over a worker pool
    (:func:`repro.perf.pool.parallel_map`); the parent computes the shared
    artifacts first and hands each task only what :func:`_sweep_task`
    reads (:func:`_task_trace`, plus the Belady buckets), so no worker
    walks the stack, and the merge is in capacity order — results never
    depend on ``jobs``.  Probe counters are emitted from the parent
    (worker probes are process-local and deliberately lost).
    """
    if policy not in ("lru", "belady"):
        raise ConfigurationError(
            f"unknown replay policy {policy!r}; choose 'lru' or 'belady'"
        )
    caps = [as_capacity(c) for c in capacities]
    if not caps:
        return []
    grid = bucket = None
    if policy == "belady":
        peak = _live_peak(trace)
        grid = tuple(sorted({c for c in caps if c < peak}))
        if grid:
            bucket = _belady_buckets(trace, grid)
        artifacts = ["elem_runs"]
        if max(caps) >= peak:
            _above_peak_stats(trace)
            artifacts.append("above_peak")
    else:
        _reuse_distances(trace)
        artifacts = ["lru_dist", "elem_runs"]
    _element_runs(trace)
    jobs = min(int(jobs), len(caps))
    if jobs <= 1:
        counts = _sweep_task((trace, grid, bucket, caps))
    else:
        from ..perf.pool import parallel_map

        shipped = _task_trace(trace, artifacts)
        bounds = [len(caps) * k // jobs for k in range(jobs + 1)]
        tasks = [
            (shipped, grid, bucket, caps[bounds[k] : bounds[k + 1]])
            for k in range(jobs)
            if bounds[k] < bounds[k + 1]
        ]
        counts = [triple for chunk in parallel_map(_sweep_task, tasks, jobs=jobs)
                  for triple in chunk]
    return _results(policy, trace, caps, counts)


# --------------------------------------------------------------------- #
# incremental replay: op-at-a-time LRU from any cache state
# --------------------------------------------------------------------- #

def op_access_lists(trace: CompiledTrace) -> list[list[int]]:
    """Per-op element-ID access lists (duplicates kept, stream order).

    Plain Python lists, cached on the trace: the incremental cursor below
    touches a few ops at a time, where per-access list iteration beats
    numpy slicing by an order of magnitude.
    """
    cached = trace._replay_cache.get("op_access_lists")
    if cached is None:
        ids = trace.elem_ids.tolist()
        starts = trace.op_starts.tolist()
        cached = [ids[starts[i] : starts[i + 1]] for i in range(trace.n_ops)]
        trace._replay_cache["op_access_lists"] = cached
    return cached


class LruCursor:
    """Op-at-a-time LRU replay from a cold cache or a given one.

    The order-search engine (:mod:`repro.graph.search`) needs two things
    the batch replays above cannot give it: the *incremental* load cost of
    emitting one more op from a given cache state (beam / lookahead
    expansion), and the loads of an order's ops from the middle of the
    order on (annealing re-costs only the part of the order a move
    changed; :meth:`start` sets the cache state there, which
    :class:`LruLedger` reads off the ops before it).  The cursor keeps
    exact element-level LRU state — an insertion-ordered dict as the
    recency list — and applies ops access by access, so applying a full
    order reproduces
    ``lru_replay_trace(trace.reorder(order), capacity).loads`` bit for bit
    (asserted by the test suite).  Stores are not tracked: the cursor is a
    search objective, and the load count alone orders candidate schedules.
    """

    __slots__ = ("trace", "capacity", "loads", "_cache", "_accesses")

    def __init__(self, trace: CompiledTrace, capacity: int):
        self.trace = trace
        self.capacity = as_capacity(capacity)
        self.loads = 0
        # insertion-ordered dict as LRU recency list: oldest entry first.
        self._cache: dict[int, None] = {}
        self._accesses = op_access_lists(trace)

    def start(self, resident: "Iterable[int]") -> None:
        """Start over from a cache holding ``resident``, least recently
        used first, with no loads counted."""
        self._cache = dict.fromkeys(resident)
        self.loads = 0

    def clone(self) -> "LruCursor":
        other = object.__new__(LruCursor)
        other.trace = self.trace
        other.capacity = self.capacity
        other.loads = self.loads
        other._cache = dict(self._cache)
        other._accesses = self._accesses
        return other

    def apply_op(self, i: int) -> int:
        """Emit op ``i``: update cache state, return the loads it cost."""
        cache = self._cache
        capacity = self.capacity
        loads = 0
        for e in self._accesses[i]:
            if e in cache:
                del cache[e]  # refresh recency: move to the young end
            else:
                loads += 1
                if len(cache) >= capacity:
                    del cache[next(iter(cache))]
            cache[e] = None
        self.loads += loads
        return loads


class LruLedger:
    """Delta evaluation of the per-node LRU loads of an ``(order, owner)``
    pair, with no cache state kept.

    The search-loop form of replaying a pair through one
    :class:`LruCursor` per node: node ``owner[v]`` applies op ``v`` when
    the order reaches it, and ``owner=None`` is the one-node case.  A
    node's loads depend only on its *program*, the ops it owns in the
    order they run.  The ledger keeps the committed load of every op,
    keyed by op id, and each node's total.  :meth:`score` costs a
    candidate by replaying only the nodes whose program changed
    (``nodes``; ``None`` means every node); :meth:`commit` adopts the
    candidate (a later :meth:`score` discards it).

    Both ends of a node's replay come from the inclusion property: after
    any access an LRU cache holds exactly the ``capacity`` most recently
    used distinct elements, in recency order.

    * *Start state.*  A replayed node scans its own ops backwards from
      ``from_pos`` until it has met ``capacity`` distinct elements; below
      ``from_pos`` the candidate equals the committed pair.  The scan
      gives the node's recency list, and its cursor starts from it
      (:meth:`LruCursor.start`).
    * *Stop rule.*  The node stops after the first op at or past
      ``settled`` at which its accesses since ``settled`` cover
      ``capacity`` distinct elements: its cache then equals the committed
      replay's, and so does every later load.  The stop is exact, never
      an estimate; a node that never meets it replays to the end.

    A replayed node's candidate loads are its committed loads, minus the
    committed loads of its ops over the replayed positions under the
    committed pair, plus the replayed loads.  A commit writes the
    replayed ops' loads.  An op's load depends on its node's program, not
    on its position, so a move that changes no program (``nodes=()``)
    replays nothing and its commit only adopts the pair.

    Caller contract for :meth:`score`: the candidate agrees with the
    committed pair — the op at each position and that op's owner — below
    ``from_pos`` and at or after ``settled``, and every node whose program
    the candidate changes is in ``nodes``.  An order move of window
    ``[i, j)`` passes ``from_pos=i, settled=j``; an ownership move passes
    the smallest committed position of a moved op and the largest plus
    one, with the moved ops' old owners and their destination as
    ``nodes``.  The ledger holds the committed order and owner list by
    reference and reads them only inside :meth:`score`, so a caller may
    edit its committed list in place into the candidate between a score
    and that score's commit.
    """

    def __init__(
        self,
        trace: CompiledTrace,
        capacity: int,
        order: "Sequence[int]",
        owner: "Sequence[int] | None" = None,
        *,
        p: int | None = None,
    ):
        if owner is not None and len(owner) != trace.n_ops:
            raise ConfigurationError(
                f"owner has {len(owner)} entries for {trace.n_ops} ops"
            )
        top = max(owner, default=0) + 1 if owner is not None else 1
        if p is None:
            p = top
        elif p < top:
            raise ConfigurationError(f"owner references node {top - 1} but p = {p}")
        if owner is not None and min(owner, default=0) < 0:
            raise ConfigurationError("owner indices must be >= 0")
        if owner is None and p != 1:
            raise ConfigurationError(f"owner=None is the one-node case, but p = {p}")
        self.p = p
        self._cursor = LruCursor(trace, capacity)
        #: committed per-node loads.
        self.loads = [0] * p
        #: committed loads of each op on its node, by op id.
        self.op_loads = [0] * trace.n_ops
        self._order = order
        self._owner = owner
        self._pending: tuple | None = None
        self.work = 0
        self.score(order, owner)
        self.commit()
        #: cursor ops applied by scores, not counting the build.
        self.work = 0

    def score(
        self,
        order: "Sequence[int]",
        owner: "Sequence[int] | None" = None,
        from_pos: int = 0,
        settled: int | None = None,
        nodes: "Iterable[int] | None" = None,
    ) -> list[int]:
        """Per-node loads of the candidate pair ``(order, owner)``.

        ``settled=None`` replays to the end of the order.
        """
        n = len(order)
        if settled is None:
            settled = n
        cursor = self._cursor
        apply_op = cursor.apply_op
        accesses = cursor._accesses
        capacity = cursor.capacity
        old_order, old_owner = self._order, self._owner
        op_loads = self.op_loads
        loads = list(self.loads)
        replayed: dict[int, int] = {}
        for q in range(self.p) if nodes is None else nodes:
            cursor.start(self._resident(order, owner, q, from_pos))
            stop = n
            recent: set[int] = set()  # elements accessed since ``settled``
            for pos in range(from_pos, n):
                v = order[pos]
                if owner is not None and owner[v] != q:
                    continue
                replayed[v] = apply_op(v)
                if pos >= settled:
                    recent.update(accesses[v])
                    if len(recent) >= capacity:
                        stop = pos + 1
                        break
            if old_owner is None:
                old = sum(map(op_loads.__getitem__, old_order[from_pos:stop]))
            else:
                old = sum(
                    op_loads[v] for v in old_order[from_pos:stop] if old_owner[v] == q
                )
            loads[q] += cursor.loads - old
        self.work += len(replayed)
        self._pending = (order, owner, replayed, loads)
        return list(loads)

    def _resident(self, order, owner, q: int, end: int):
        """Node ``q``'s cache after ``order[:end]``, least recently used
        first: its last ``capacity`` distinct elements, read backwards."""
        accesses = self._cursor._accesses
        capacity = self._cursor.capacity
        seen: dict[int, None] = {}  # most recent access first
        for k in range(end - 1, -1, -1):
            v = order[k]
            if owner is not None and owner[v] != q:
                continue
            for e in reversed(accesses[v]):
                if e not in seen:
                    seen[e] = None
                    if len(seen) == capacity:
                        return reversed(seen)
        return reversed(seen)

    def commit(self) -> list[int]:
        """Adopt the last scored candidate as the committed state."""
        if self._pending is not None:
            self._order, self._owner, replayed, self.loads = self._pending
            op_loads = self.op_loads
            for v, load in replayed.items():
                op_loads[v] = load
            self._pending = None
        return list(self.loads)
