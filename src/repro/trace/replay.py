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
* **Belady/MIN, one capacity** (:func:`belady_replay_trace`) — the adaptive
  chunked simulation (:func:`_belady_simulate`).  Hits never change the
  cache contents, so it scans ahead for the next miss with one vectorized
  residency gather per window, bulk-applies whole hit runs and drops to
  per-access Python only at the misses (a tight int loop once misses are
  dense).
* **Belady/MIN, a capacity sweep** (:func:`sweep_replay_trace`) — one
  grouped OPT-stack pass over the canonical grid of the requested
  capacities (:func:`_belady_buckets`), then an O(n) count per capacity.
  The stack pass wins at small capacities and whenever a grid amortizes
  it; the chunked engine wins at large single capacities, where hit runs
  are long.
* **Incremental LRU** — :class:`LruCursor` and :class:`LruLedger` replay an
  order op by op from any cache snapshot, for the order searches; the
  ledger keeps one cursor per node and replays only the nodes a move
  changed.

Every entry point takes its capacity through :func:`as_capacity`.  Store
accounting matches the oracles: dirty evictions count as stores
(``evict_stores``) and dirty elements still resident at the end are
flushed; ``stores`` is the sum of both.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..obs.probe import get_probe
from .compiled import CompiledTrace

#: Initial / maximum width of the miss-scan window (adaptively resized).
_MIN_WINDOW = 64
_MAX_WINDOW = 8192


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


#: Hit-run length below which vectorized bulk handling is not worth the
#: numpy call overhead, and above which the scalar mode hands back to the
#: vectorized scanner.  Read at call time; the two modes maintain
#: identical state, so every threshold yields identical counts.
_SCALAR_RUN = 32


def _belady_simulate(trace: CompiledTrace, capacity: int) -> tuple[int, int, int]:
    """Chunked Belady/MIN simulation; returns (loads, evict_stores, flush_stores).

    Two modes, switched by observed hit-run length:

    * **vector**: gather residency for a doubling window, bulk-apply the
      whole hit run (dirty marking, one next-use stamp per element via
      reverse ``np.unique``), drop to per-access work only at the miss;
    * **scalar**: a tight Python-int loop over pre-extracted lists — the
      regime where misses are dense and per-window numpy overhead would
      dominate (thrashing capacities).

    Both modes maintain identical state, so switching is free: residency
    and dirtiness live in ``bytearray``s wrapped zero-copy by numpy views
    (scalar reads are plain-Python fast, gathers are vectorized), each
    element's current next use in an int64 stamp array, and eviction
    candidates are packed ints ``(n - next_use) << (id_bits + 1) | dirty
    << id_bits | elem`` (smallest = furthest next use), lazily invalidated
    against the stamp array.  Next-use positions are unique, so distances
    can only tie at "never used again"; among those the packed dirty bit
    prefers clean victims — and because a never-reused element's dirty
    status is final by its last access (dirty only changes when an
    element is accessed), the bit packed at push time provably equals the
    live status whenever the tie-break can fire.
    """
    scalar_run = _SCALAR_RUN
    n = trace.n_accesses
    ids = trace.elem_ids
    n_elem = trace.n_elements

    id_bits = max(1, n_elem - 1).bit_length()
    id_mask = (1 << id_bits) - 1
    shift = id_bits + 1
    cached_b = bytearray(n_elem)
    dirty_b = bytearray(n_elem)
    cached = np.frombuffer(cached_b, dtype=np.uint8)  # zero-copy views
    dirty = np.frombuffer(dirty_b, dtype=np.uint8)
    stamp = np.full(n_elem, -1, dtype=np.int64)
    heap: list[int] = []
    # Resident elements that are *never used again* are always the
    # furthest-next-use victims, mutually tied, and their dirty status is
    # final by their last access — so they live in two plain stacks
    # instead of the heap, clean ones preferred, no invalidation needed.
    never_clean: list[int] = []
    never_dirty: list[int] = []
    # Bulk-mode entries avoid per-entry heap pushes entirely: each hit run
    # contributes one *sorted* array (log-structured levels, geometrically
    # merged), and the rare eviction pops scan the level heads.  Scalar-
    # mode entries still go through the Python heap.
    levels: list[np.ndarray] = []
    level_ptrs: list[int] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    loads = evict_stores = resident = 0
    evictions = windows = 0  # engine telemetry; emitted to the probe once

    def push_level(entries: np.ndarray) -> None:
        levels.append(np.sort(entries))
        level_ptrs.append(0)
        while (
            len(levels) >= 2
            and levels[-1].size - level_ptrs[-1]
            >= levels[-2].size - level_ptrs[-2]
        ):
            b, bp = levels.pop(), level_ptrs.pop()
            a, ap = levels.pop(), level_ptrs.pop()
            levels.append(np.sort(np.concatenate([a[ap:], b[bp:]])))
            level_ptrs.append(0)

    def pop_entry() -> int:
        """Smallest pending entry across the heap and the sorted levels."""
        i = 0
        while i < len(levels):  # drop exhausted levels
            if level_ptrs[i] >= levels[i].size:
                del levels[i], level_ptrs[i]
            else:
                i += 1
        best_level = -1
        best = heap[0] if heap else None
        for i in range(len(levels)):
            value = int(levels[i][level_ptrs[i]])
            if best is None or value < best:
                best, best_level = value, i
        if best_level < 0:
            return heappop(heap)
        level_ptrs[best_level] += 1
        return best

    # Scalar-mode working copies: plain Python lists beat numpy scalar
    # indexing by ~5x in tight loops.
    ids_l = ids.tolist()
    writes_l = trace.is_write.tolist()
    nxt = trace.next_use()
    nxt_l = trace._replay_cache.get("next_use_list")
    if nxt_l is None:
        nxt_l = nxt.tolist()
        trace._replay_cache["next_use_list"] = nxt_l

    def handle_miss(p: int, e: int) -> None:
        nonlocal loads, evict_stores, resident, evictions
        while resident >= capacity:
            if never_clean:
                victim = never_clean.pop()
                cached_b[victim] = 0
                resident -= 1
                evictions += 1
                continue
            if never_dirty:
                victim = never_dirty.pop()
                cached_b[victim] = 0
                dirty_b[victim] = 0
                resident -= 1
                evict_stores += 1
                evictions += 1
                continue
            entry = pop_entry() if levels else heappop(heap)
            victim = entry & id_mask
            if not cached_b[victim]:
                continue
            if stamp[victim] != n - (entry >> shift):
                continue  # superseded by a later access of the same element
            cached_b[victim] = 0
            resident -= 1
            evictions += 1
            if dirty_b[victim]:
                evict_stores += 1
                dirty_b[victim] = 0
        write = writes_l[p]
        cached_b[e] = 1
        dirty_b[e] = 1 if write else 0
        loads += 1
        resident += 1
        nu = nxt_l[p]
        stamp[e] = nu
        if nu == n:
            (never_dirty if write else never_clean).append(e)
        else:
            heappush(heap, ((n - nu) << shift) | (write << id_bits) | e)

    pos = 0
    window = _MIN_WINDOW
    scalar_mode = capacity < scalar_run  # tiny caches thrash by definition
    scalar_switches = 1 if scalar_mode else 0
    while pos < n:
        if scalar_mode:
            run = 0
            while pos < n:
                e = ids_l[pos]
                if cached_b[e]:
                    if writes_l[pos]:
                        dirty_b[e] = 1
                    nu = nxt_l[pos]
                    stamp[e] = nu
                    if nu == n:
                        (never_dirty if dirty_b[e] else never_clean).append(e)
                    else:
                        heappush(
                            heap,
                            ((n - nu) << shift) | (dirty_b[e] << id_bits) | e,
                        )
                    run += 1
                    if run >= 2 * scalar_run and capacity >= scalar_run:
                        pos += 1
                        scalar_mode = False
                        break
                else:
                    handle_miss(pos, e)
                    run = 0
                pos += 1
            continue

        stop = min(n, pos + window)
        windows += 1
        miss_rel = np.flatnonzero(cached[ids[pos:stop]] == 0)
        hits = int(miss_rel[0]) if miss_rel.size else stop - pos
        if hits:
            # Bulk-apply the hit run: dirty marking, then one stamp / heap
            # entry per distinct element (its last access in the run wins).
            sub = ids[pos : pos + hits]
            written = sub[trace.is_write[pos : pos + hits]]
            if written.size:
                dirty[written] = 1
            u, first_rev = np.unique(sub[::-1], return_index=True)
            stamps = nxt[pos + (hits - 1 - first_rev)]
            stamp[u] = stamps
            finite = stamps < n
            if not finite.all():
                gone = u[~finite]
                gone_dirty = dirty[gone] != 0
                never_dirty.extend(gone[gone_dirty].tolist())
                never_clean.extend(gone[~gone_dirty].tolist())
                u, stamps = u[finite], stamps[finite]
            entries = ((n - stamps) << shift) | (
                dirty[u].astype(np.int64) << id_bits
            ) | u
            if entries.size:
                push_level(entries)
        if not miss_rel.size:
            pos = stop
            window = min(_MAX_WINDOW, window * 2)
            continue
        if hits < scalar_run:
            scalar_mode = True  # misses are dense: numpy overhead loses
            scalar_switches += 1
            window = _MIN_WINDOW
        p = pos + hits
        # Batch a run of consecutive misses when the cache can absorb it
        # without evicting: no victim choices are made, so the bulk insert
        # is trivially equivalent to the per-access walk.  (This is the
        # dominant miss pattern once capacity covers the working set:
        # whole tiles/blocks cold-load together.)
        gaps = np.flatnonzero(np.diff(miss_rel) != 1)
        run = int(gaps[0]) + 1 if gaps.size else int(miss_rel.size)
        run = min(run, capacity - resident)
        if run >= 2:
            run_ids = ids[p : p + run]
            order_r = np.argsort(run_ids, kind="stable")
            sorted_r = run_ids[order_r]
            dup = np.flatnonzero(sorted_r[1:] == sorted_r[:-1])
            if dup.size:  # batch must stop before an element repeats
                run = int(order_r[dup + 1].min())
        if run >= 2:
            run_ids = ids[p : p + run]
            run_writes = trace.is_write[p : p + run]
            cached[run_ids] = 1
            dirty[run_ids] = run_writes
            loads += run
            resident += run
            run_next = nxt[p : p + run]
            stamp[run_ids] = run_next
            finite = run_next < n
            if not finite.all():
                gone = run_ids[~finite]
                gone_dirty = run_writes[~finite]
                never_dirty.extend(gone[gone_dirty].tolist())
                never_clean.extend(gone[~gone_dirty].tolist())
            entries = ((n - run_next[finite]) << shift) | (
                run_writes[finite].astype(np.int64) << id_bits
            ) | run_ids[finite]
            if entries.size:
                push_level(entries)
            pos = p + run
            continue
        handle_miss(p, ids_l[p])
        pos = p + 1

    probe = get_probe()
    if probe.enabled:
        probe.count("replay.belady.evictions", evictions)
        probe.count("replay.belady.windows", windows)
        probe.count("replay.belady.scalar_switches", scalar_switches)
    return loads, evict_stores, int(dirty.sum())


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
# one-pass Belady sweeps: the grouped OPT stack
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
# ``(n - next_use) << id_bits | elem`` ints, exactly the engine's
# encoding).  One access then touches at most ``len(caps)`` groups:
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
# engine's exact counts — pinned by the cross-checks in the test suite.


def _belady_buckets(trace: CompiledTrace, caps: tuple[int, ...]) -> np.ndarray:
    """Per-access OPT hit buckets against the (canonical) capacity grid.

    ``bucket[p]`` is the index of the smallest capacity in ``caps`` at
    which access ``p`` is a Belady hit, or ``len(caps)`` if it misses at
    every sweep capacity (cold, or deeper than ``max(caps)``).  One pass,
    cached per grid — the Belady analogue of :func:`_reuse_distances`.
    """
    key = ("belady_buckets", caps)
    cached = trace._replay_cache.get(key)
    if cached is not None:
        return cached
    n = trace.n_accesses
    n_elem = trace.n_elements
    m = len(caps)
    ids_l = trace.elem_ids.tolist()
    nxt_l = trace._replay_cache.get("next_use_list")
    if nxt_l is None:
        nxt_l = trace.next_use().tolist()
        trace._replay_cache["next_use_list"] = nxt_l
    id_bits = max(1, n_elem - 1).bit_length()
    id_mask = (1 << id_bits) - 1
    heappush, heappop = heapq.heappush, heapq.heappop

    heappushpop = heapq.heappushpop

    group_of = [-1] * n_elem     # current group per element (-1: untracked)
    nu_cur = [0] * n_elem        # next-use stamp the element entered with
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
            if group_of[e] == j and nu_cur[e] == n - (entry >> id_bits):
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
        while (
            group_of[top & id_mask] != j
            or nu_cur[top & id_mask] != n - (top >> id_bits)
        ):
            heappop(h)
            top = h[0]
        return top

    for p in range(n):
        e = ids_l[p]
        nu = nxt_l[p]
        g = group_of[e]
        if g == 0:
            # Hit in the top group: membership unchanged, refresh the
            # stamp (the old heap entry goes stale via ``nu_cur``).
            nu_cur[e] = nu
            heappush(heaps[0], ((n - nu) << id_bits) | e)
            continue  # bucket[p] stays 0
        if g < 0:
            bucket[p] = m
            nu_cur[e] = nu
            group_of[e] = 0
            if fill == 0:  # stack still growing: nothing overflows
                sizes[0] += 1
                heappush(heaps[0], ((n - nu) << id_bits) | e)
                if sizes[0] == caps_sz[0]:
                    fill = 1
                continue
            # group 0 full: its furthest member cascades (extracted before
            # the accessed element enters — it never carries at its own
            # access), so group 0's size is back to full immediately
            carry_entry, carry_e = extract_max(0)
            heappush(heaps[0], ((n - nu) << id_bits) | e)
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
            nu_cur[e] = nu
            group_of[e] = 0
            heappush(heaps[0], ((n - nu) << id_bits) | e)
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

    out = np.asarray(bucket, dtype=np.int64)
    trace._replay_cache[key] = out
    return out


def _belady_counts_from_buckets(
    trace: CompiledTrace, bucket: np.ndarray, caps: tuple[int, ...], index: int
) -> tuple[int, int, int]:
    """(loads, evict_stores, flush_stores) at capacity ``caps[index]``.

    The miss mask is ``bucket > index``; stores reuse the LRU machinery
    (write-containing residency segments are policy-independent).  The
    flush/evict split needs one more fact: the engine prefers never-
    used-again victims, clean before dirty, over the heap.  Each
    eviction therefore pops the clean pool, then the dirty pool, then
    the heap — and because only *counts* matter (pool members are
    interchangeable: evicting one never-reused element vs another never
    changes later behavior, and every dirty-pool pop costs exactly one
    writeback), the pools reduce to two clipped counter walks.  A pool
    pop fails exactly where the walk ``(pushes - evictions)`` reaches a
    new running minimum below zero (one clip per unit of descent, and
    only evictions descend); clean-pool clips cascade into the dirty
    walk, dirty-pool clips continue to the heap.  Dirty elements still
    pooled at the end are the final flush.
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


def _results(policy: str, trace: CompiledTrace, caps, counts) -> list[LruReplayResult]:
    """Result records for ``(loads, evict_stores, flush)`` per capacity.

    Also emits the ``replay.<policy>.*`` probe counters, summed over the
    capacities.
    """
    cls = BeladyReplayResult if policy == "belady" else LruReplayResult
    results = [
        cls(
            capacity=c,
            loads=loads,
            stores=evict_stores + flush,
            n_accesses=trace.n_accesses,
            distinct=trace.n_elements,
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
    """Belady/MIN replay of a compiled trace at one capacity.

    Runs the adaptive chunked simulation (:func:`_belady_simulate`); a
    capacity sweep goes through :func:`sweep_replay_trace` instead.
    """
    capacity = as_capacity(capacity)
    counts = _belady_simulate(trace, capacity)
    return _results("belady", trace, [capacity], [counts])[0]


def _sweep_task(task) -> list[tuple[int, int, int]]:
    """Counts for one chunk of a sweep's capacities (also a pool worker).

    ``grid`` is the Belady sweep's canonical capacity grid, or ``None`` for
    LRU; the one-pass artifacts come from the trace's cache.
    """
    trace, grid, caps = task
    if grid is None:
        return [_lru_counts_from_distances(trace, c) for c in caps]
    bucket = _belady_buckets(trace, grid)
    return [
        _belady_counts_from_buckets(trace, bucket, grid, grid.index(c))
        for c in caps
    ]


def sweep_replay_trace(
    trace: CompiledTrace,
    capacities,
    *,
    policy: str = "belady",
    jobs: int = 1,
) -> list[LruReplayResult]:
    """Replay one trace at many capacities; results in input order.

    The whole sweep is one pass: LRU classifies every capacity against the
    cached reuse distances, Belady against one grouped OPT stack pass over
    the *canonical grid* of all requested capacities
    (:func:`_belady_buckets`, counted as ``replay.belady.sweep_one_pass``),
    leaving only an O(n) counting step per capacity.  ``jobs > 1`` shards
    the capacity list over a worker pool
    (:func:`repro.perf.pool.parallel_map`); the parent computes the shared
    artifacts first so workers inherit them via the pickled trace, and the
    merge is in capacity order — results never depend on ``jobs``.  Probe
    counters are emitted from the parent (worker probes are process-local
    and deliberately lost).
    """
    if policy not in ("lru", "belady"):
        raise ConfigurationError(
            f"unknown replay policy {policy!r}; choose 'lru' or 'belady'"
        )
    caps = [as_capacity(c) for c in capacities]
    if not caps:
        return []
    grid = None
    if policy == "belady":
        grid = tuple(sorted(set(caps)))
        _belady_buckets(trace, grid)
        probe = get_probe()
        if probe.enabled:
            probe.count("replay.belady.sweep_one_pass")
    else:
        _reuse_distances(trace)
    _element_runs(trace)
    jobs = min(int(jobs), len(caps))
    if jobs <= 1:
        counts = _sweep_task((trace, grid, caps))
    else:
        from ..perf.pool import parallel_map

        bounds = [len(caps) * k // jobs for k in range(jobs + 1)]
        tasks = [
            (trace, grid, caps[bounds[k] : bounds[k + 1]])
            for k in range(jobs)
            if bounds[k] < bounds[k + 1]
        ]
        counts = [triple for chunk in parallel_map(_sweep_task, tasks, jobs=jobs)
                  for triple in chunk]
    return _results(policy, trace, caps, counts)


# --------------------------------------------------------------------- #
# incremental replay: op-at-a-time LRU from any cache snapshot
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


def op_element_sets(trace: CompiledTrace) -> list[frozenset[int]]:
    """Per-op *distinct* element IDs (the op footprints), cached."""
    cached = trace._replay_cache.get("op_element_sets")
    if cached is None:
        cached = [frozenset(acc) for acc in op_access_lists(trace)]
        trace._replay_cache["op_element_sets"] = cached
    return cached


class LruCursor:
    """Op-at-a-time LRU replay with snapshot / restore / suffix replay.

    The order-search engine (:mod:`repro.graph.search`) needs two things
    the batch replays above cannot give it: the *incremental* load cost of
    emitting one more op from a given cache state (beam / lookahead
    expansion), and the cost of an order suffix replayed from a mid-stream
    snapshot (annealing re-costs only the part of the order a move
    changed).  The cursor keeps exact element-level LRU state — an
    insertion-ordered dict as the recency list — and applies ops access by
    access, so applying a full order reproduces
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

    # -- state ---------------------------------------------------------- #
    @property
    def resident(self) -> list[int]:
        """Resident element IDs, least recently used first."""
        return list(self._cache)

    def snapshot(self) -> tuple[int, tuple[int, ...]]:
        """An immutable (loads, recency-ordered residents) checkpoint."""
        return (self.loads, tuple(self._cache))

    def restore(self, snap: tuple[int, tuple[int, ...]]) -> None:
        self.loads = snap[0]
        self._cache = dict.fromkeys(snap[1])

    def matches(self, snap: tuple[int, tuple[int, ...]]) -> bool:
        """Is the cache exactly ``snap``'s recency list (loads ignored)?

        Under LRU the future depends on the cache only through this list,
        so two replays that match here incur equal loads from here on.
        """
        return tuple(self._cache) == snap[1]

    def clone(self) -> "LruCursor":
        other = object.__new__(LruCursor)
        other.trace = self.trace
        other.capacity = self.capacity
        other.loads = self.loads
        other._cache = dict(self._cache)
        other._accesses = self._accesses
        return other

    # -- costing -------------------------------------------------------- #
    def peek_op(self, i: int) -> int:
        """Loads op ``i`` would incur right now (no state change).

        An *optimistic lower bound*: the count of footprint elements not
        resident at op entry.  It is exact unless the op's own misses
        evict a resident footprint element before the op touches it
        (cache full, the element older than every non-footprint
        resident), in which case the element is re-loaded and
        :meth:`apply_op` charges more.  Searches use peeks to *rank*
        candidates; accumulated costs always come from ``apply_op``,
        which is exact.
        """
        cache = self._cache
        missing = 0
        for e in op_element_sets(self.trace)[i]:
            if e not in cache:
                missing += 1
        return missing

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

    def apply(self, ops: "Sequence[int]") -> int:
        """Emit a run of ops; returns the total loads of the run."""
        before = self.loads
        for i in ops:
            self.apply_op(i)
        return self.loads - before


class LruLedger:
    """Checkpointed delta evaluation of per-node LRU loads of a pair.

    The search-loop form of replaying an ``(order, owner)`` pair through
    one :class:`LruCursor` per node: node ``owner[v]`` applies op ``v``
    when the order reaches it, and ``owner=None`` is the one-node case.
    A node's loads depend only on its *program*, the ops it owns in the
    order they run.  The ledger keeps each node's own cache state before
    positions ``0, interval, 2*interval, ...`` of the committed order.
    :meth:`score` costs a candidate by replaying only the nodes whose
    program changed (``nodes``; ``None`` means every node), each from its
    own checkpoint at or before ``from_pos``; :meth:`commit` adopts the
    candidate (a later :meth:`score` discards it).  The caller owns the
    pair and passes the whole candidate to :meth:`score`.

    Re-convergence cut-off: an LRU cache holds the ``capacity`` most
    recently used distinct elements in recency order, so it depends only
    on recent history, and a node's replay usually rejoins its committed
    one a few ops after the moved positions.  From the first checkpoint
    at or after ``settled`` on, each replayed node stops at the first
    checkpoint where its recency list equals its committed one
    (:meth:`LruCursor.matches`).  Every later load of that node then
    equals its committed load, so its candidate loads are its committed
    loads plus the delta so far, and :meth:`commit` shifts the load
    counts of its later checkpoints by that delta.  The cut-off is exact:
    convergence is an equality of recency lists, never an estimate.

    A node left out of ``nodes`` keeps its loads, but an order move can
    carry one of its ops across a checkpoint inside the window: its
    program is the same, its state at that checkpoint is not.
    :meth:`commit` re-snapshots exactly those nodes at those checkpoints,
    so every checkpoint always equals a fresh ledger's.

    Caller contract for :meth:`score`: the candidate agrees with the
    committed pair — the op at each position and that op's owner — below
    ``from_pos`` and at or after ``settled``, and every node whose program
    the candidate changes is in ``nodes``.  An order move of window
    ``[i, j)`` passes ``from_pos=i, settled=j``; an ownership move passes
    the smallest committed position of a moved op and the largest plus
    one, with the moved ops' old owners and their destination as
    ``nodes``.  ``nodes=()`` costs a candidate that changes no program:
    no replay at all.
    """

    def __init__(
        self,
        trace: CompiledTrace,
        capacity: int,
        order: "Sequence[int]",
        owner: "Sequence[int] | None" = None,
        *,
        p: int | None = None,
        interval: int | None = None,
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
        if interval is not None and interval < 1:
            raise ConfigurationError(f"interval must be >= 1, got {interval}")
        n = len(order)
        self.p = p
        self.interval = int(interval) if interval is not None else max(8, n // 64)
        #: committed per-node loads.
        self.loads = [0] * p
        self._cursors = [LruCursor(trace, capacity) for _ in range(p)]
        # _snaps[q][j]: node q's snapshot before position j * interval.
        cold = self._cursors[0].snapshot()
        self._snaps = [[cold] for _ in range(p)]
        self._order = order
        self._pending: tuple | None = None
        self.work = 0
        self.score(order, owner)
        self.commit()
        #: cursor ops applied by scores and checkpoint refreshes, not
        #: counting the build.
        self.work = 0

    @property
    def checkpoints(self) -> tuple:
        """Committed per-node snapshots, one tuple per checkpoint."""
        return tuple(zip(*self._snaps))

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
        interval = self.interval
        cursors = self._cursors
        snaps = self._snaps
        j0 = min(from_pos // interval, len(snaps[0]) - 1)
        replayed = range(self.p) if nodes is None else sorted(nodes)
        live = [False] * self.p
        fresh: dict[int, list] = {}
        for q in replayed:
            live[q] = True
            cursors[q].restore(snaps[q][j0])
            fresh[q] = []
        n_live = len(fresh)
        stops: dict[int, int] = {}
        applied = 0
        for j in range(j0, max(1, -(-n // interval))):
            pos = j * interval
            if j > j0:
                converging = pos >= settled
                for q in replayed:
                    if live[q]:
                        cursor = cursors[q]
                        if converging and cursor.matches(snaps[q][j]):
                            live[q] = False
                            stops[q] = j
                            n_live -= 1
                        else:
                            fresh[q].append(cursor.snapshot())
            if not n_live:
                break
            chunk = order[pos : pos + interval]
            if owner is None:
                cursors[0].apply(chunk)
                applied += len(chunk)
            else:
                for v in chunk:
                    q = owner[v]
                    if live[q]:
                        cursors[q].apply_op(v)
                        applied += 1
        loads = list(self.loads)
        for q in replayed:
            stop = stops.get(q)
            if stop is None:
                loads[q] = cursors[q].loads
            else:
                loads[q] += cursors[q].loads - snaps[q][stop][0]
        self.work += applied
        self._pending = (order, owner, from_pos, settled, j0, fresh, stops, loads)
        return list(loads)

    def commit(self) -> list[int]:
        """Adopt the last scored candidate as the committed state."""
        if self._pending is not None:
            order, owner, from_pos, settled, j0, fresh, stops, loads = self._pending
            for q, new_snaps in fresh.items():
                mine = self._snaps[q]
                stop = stops.get(q)
                if stop is None:
                    mine[j0 + 1 :] = new_snaps
                    continue
                mine[j0 + 1 : stop] = new_snaps
                delta = loads[q] - self.loads[q]
                if delta:
                    mine[stop:] = [(snap[0] + delta, snap[1]) for snap in mine[stop:]]
            if order is not self._order and len(fresh) < self.p:
                self._refresh(order, owner, from_pos, settled, j0, fresh)
            self._order = order
            self.loads = loads
            self._pending = None
        return list(self.loads)

    def _refresh(self, order, owner, from_pos, settled, j0, replayed) -> None:
        """Re-snapshot the unreplayed nodes an order move carried across a
        checkpoint inside ``[from_pos, settled)``.

        Such a node's program is unchanged, so its snapshot at a checkpoint
        ``c`` is stale exactly when the window holds a different number of
        its ops before ``c`` in the old and the new order.
        """
        interval = self.interval
        inner = range(
            from_pos // interval + 1,
            min(-(-settled // interval), len(self._snaps[0])),
        )
        if not inner:
            return
        old = self._order
        # gap[q]: q's ops in old[from_pos:pos] minus those in order[from_pos:pos]
        gap = [0] * self.p
        stale: set[int] = set()
        pos = from_pos
        for j in inner:
            for k in range(pos, j * interval):
                gap[0 if owner is None else owner[old[k]]] += 1
                gap[0 if owner is None else owner[order[k]]] -= 1
            pos = j * interval
            stale.update(q for q, d in enumerate(gap) if d and q not in replayed)
        applied = 0
        for q in sorted(stale):
            cursor = self._cursors[q]
            mine = self._snaps[q]
            cursor.restore(mine[j0])
            for j in range(j0, inner[-1]):
                if j >= inner[0]:
                    mine[j] = cursor.snapshot()
                for v in order[j * interval : (j + 1) * interval]:
                    if owner is None or owner[v] == q:
                        cursor.apply_op(v)
                        applied += 1
            mine[inner[-1]] = cursor.snapshot()
        self.work += applied
