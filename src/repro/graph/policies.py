"""Belady/MIN optimal-replacement replay: the per-order I/O floor.

:func:`~repro.analysis.lru_replay.lru_replay` answers "what does this op
*order* cost under hardware-style LRU replacement?".  This module answers
the complementary question: what is the *best possible* cost of that order
under any replacement policy?  Belady's MIN rule — on a miss, evict the
resident element whose next use is furthest in the future — is optimal for
a fixed access sequence and capacity, so ``belady_replay`` gives the
per-order floor that separates "this order is intrinsically expensive" from
"LRU is just managing it badly".

The default :func:`belady_replay` runs on the compiled trace IR
(:mod:`repro.trace`): next-use positions come from one vectorized pass and
the replay is the chunked array engine.  The original tuple/heap walker
survives as :func:`belady_replay_reference` — with one repair.  The seed
version pushed heap entries carrying a *dirty hint captured at push time*
and never checked it again, so the documented tie-break ("clean victims
preferred among equally-distant ones") silently depended on every
dirty-bit change coinciding with a fresh push.  The reference now treats a
stale hint like a stale next-use: an entry is valid only if *both* its
next-use and its dirty bit match the live cache state, and every state
change pushes a fresh entry.  The regression scenario (an equally-distant
clean/dirty pair at eviction time) is pinned in the test suite via the
``evict_stores`` counter: preferring the dirty victim turns a deferrable
final-flush store into an eviction-time writeback.

Both replays walk the *same* element access sequence as the LRU replay,
so their load counts are directly comparable: for every schedule and
capacity, ``belady_replay(s, c).loads <= lru_replay(s, c).loads``.
"""

from __future__ import annotations

import heapq

from ..sched.ops import ComputeOp
from ..sched.schedule import Schedule, access_sequence, access_sequence_reference
from ..trace.compiled import CompiledTrace, compile_trace
from ..trace.replay import BeladyReplayResult, as_capacity, belady_replay_trace

__all__ = [
    "NEVER",
    "BeladyReplayResult",
    "access_sequence",
    "belady_replay",
    "belady_replay_reference",
    "replacement_gap",
]

#: Sentinel next-use position for "never used again".
NEVER = 1 << 62


def belady_replay(
    schedule: Schedule | list[ComputeOp] | CompiledTrace, capacity: int
) -> BeladyReplayResult:
    """Replay the compute ops of ``schedule`` under Belady's MIN policy.

    Accepts a schedule, a bare op list, or an already-compiled
    :class:`~repro.trace.compiled.CompiledTrace`.  On a miss with a full
    cache, the resident element with the furthest next use is evicted
    (clean victims preferred among equally-distant ones, so eviction-time
    stores are not inflated).  Dirty evictions and the final flush count as
    stores, exactly as in the LRU replay.
    """
    return belady_replay_trace(compile_trace(schedule), as_capacity(capacity))


def belady_replay_reference(
    schedule: Schedule | list[ComputeOp] | CompiledTrace, capacity: int
) -> BeladyReplayResult:
    """The original tuple/heap MIN walker (cross-check path), tie-break fixed.

    Heap entries are ``(-next_use, dirty, key)`` with lazy invalidation: an
    entry is alive only while both its next-use position *and* its dirty
    bit match the live cache state, and every access (the only place either
    can change) pushes a fresh entry.  Next-use positions are unique, so
    ties are only possible among never-used-again residents, where the
    dirty bit makes the heap prefer clean victims with live information
    instead of a push-time snapshot.
    """
    capacity = as_capacity(capacity)
    if isinstance(schedule, CompiledTrace):
        seq = schedule.to_access_sequence()
    else:
        seq = access_sequence_reference(schedule)

    # next_use[i]: position of the next access to seq[i]'s key, else NEVER.
    next_use = [NEVER] * len(seq)
    last_pos: dict[tuple[str, int], int] = {}
    for i in range(len(seq) - 1, -1, -1):
        key = seq[i][0]
        next_use[i] = last_pos.get(key, NEVER)
        last_pos[key] = i

    cache: dict[tuple[str, int], bool] = {}          # key -> dirty
    cur_next: dict[tuple[str, int], int] = {}        # key -> its next use
    heap: list[tuple[int, int, tuple[str, int]]] = []  # (-next_use, dirty, key), lazy
    loads = evict_stores = 0

    for pos, (key, write) in enumerate(seq):
        if key in cache:
            cache[key] = cache[key] or write
        else:
            while len(cache) >= capacity:
                nu, dirty_hint, victim = heapq.heappop(heap)
                if (
                    victim in cache
                    and cur_next.get(victim) == -nu
                    and cache[victim] == bool(dirty_hint)
                ):
                    dirty = cache.pop(victim)
                    del cur_next[victim]
                    if dirty:
                        evict_stores += 1
            cache[key] = write
            loads += 1
        cur_next[key] = next_use[pos]
        heapq.heappush(heap, (-next_use[pos], 1 if cache[key] else 0, key))

    flush = sum(1 for dirty in cache.values() if dirty)
    return BeladyReplayResult(
        capacity=capacity,
        loads=loads,
        stores=evict_stores + flush,
        n_accesses=len(seq),
        distinct=len(last_pos),
        evict_stores=evict_stores,
    )


def replacement_gap(schedule: Schedule | CompiledTrace, capacity: int) -> float:
    """``Q_LRU / Q_MIN`` at equal capacity: how much LRU leaves on the table.

    1.0 means the order is so cache-friendly that LRU is already optimal;
    large values mean the order genuinely needs clairvoyant replacement.
    """
    from ..analysis.lru_replay import lru_replay

    trace = compile_trace(schedule)
    opt = belady_replay(trace, capacity).loads
    if opt <= 0:
        return 1.0
    return lru_replay(trace, capacity).loads / opt
