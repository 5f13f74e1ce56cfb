"""The tuple-walking cache replays: the oracles for the array engines.

Every LRU and Belady/MIN count in :mod:`repro.trace.replay` (reuse
distances, the grouped OPT stack, the cursors)
and every compiled access stream (:func:`repro.trace.compiled.compile_trace`)
is pinned to these walkers, which share no code with the engines:

* :func:`access_sequence_reference` — the element access stream of an op
  list, one ``((matrix, flat), is_write)`` tuple per touch;
* :func:`trace_keys` and :func:`key_of` — a compiled trace's interned
  element IDs decoded back to ``(matrix, flat)`` keys;
* :func:`to_access_sequence` — a compiled trace decoded back into that
  tuple form, so a stream compiled by the engine compares with it;
* :func:`lru_replay_reference` — an ``OrderedDict`` LRU cache;
* :func:`belady_replay_reference` — a lazy max-heap MIN cache that prefers
  clean victims among equally-distant ones.

Each walker takes a schedule, an op list or a compiled trace, so any
input an engine replays can be replayed here too.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

from repro.graph.policies import NEVER
from repro.sched.ops import ComputeOp
from repro.sched.schedule import ComputeStep, Schedule
from repro.trace.compiled import CompiledTrace
from repro.trace.replay import BeladyReplayResult, LruReplayResult, as_capacity


def key_of(trace: CompiledTrace, elem_id: int) -> tuple[str, int]:
    """Decode one element ID back to its ``(matrix, flat)`` key."""
    return (trace.matrices[int(trace.key_matrix[elem_id])], int(trace.key_flat[elem_id]))


def trace_keys(trace: CompiledTrace) -> list[tuple[str, int]]:
    """All interned keys, indexed by element ID."""
    names = trace.matrices
    return [
        (names[m], f)
        for m, f in zip(trace.key_matrix.tolist(), trace.key_flat.tolist())
    ]


def to_access_sequence(trace: CompiledTrace) -> list[tuple[tuple[str, int], bool]]:
    """The stream as ``((matrix, flat), is_write)`` tuples.

    Bit-compatible with the reference traversal
    (:func:`access_sequence_reference`).
    """
    keys = trace_keys(trace)
    return [
        (keys[e], w)
        for e, w in zip(trace.elem_ids.tolist(), trace.is_write.tolist())
    ]


def access_sequence_reference(
    ops: "list[ComputeOp] | Schedule",
) -> list[tuple[tuple[str, int], bool]]:
    """The original pure-Python traversal (cross-check path for the IR).

    Each op touches its read regions element by element (flagged as writes
    where the element is also written), then any written elements not
    covered by a read region.
    """
    if isinstance(ops, Schedule):
        ops = [s.op for s in ops.steps if isinstance(s, ComputeStep)]
    seq: list[tuple[tuple[str, int], bool]] = []
    for op in ops:
        write_keys = {
            (region.matrix, int(i)) for region in op.writes() for i in region.flat
        }
        read_keys: set[tuple[str, int]] = set()
        for region in op.reads():
            for i in region.flat:
                key = (region.matrix, int(i))
                read_keys.add(key)
                seq.append((key, key in write_keys))
        for region in op.writes():
            for i in region.flat:
                key = (region.matrix, int(i))
                if key not in read_keys:
                    seq.append((key, True))
    return seq


def lru_replay_reference(
    schedule: Schedule | CompiledTrace, capacity: int
) -> LruReplayResult:
    """The original tuple-per-touch LRU walker (cross-check path).

    Kept verbatim as the independent oracle for
    :func:`repro.analysis.lru_replay.lru_replay`: it shares no code with
    the array engine, so agreement between the two is a meaningful check.
    """
    capacity = as_capacity(capacity)
    if isinstance(schedule, CompiledTrace):
        seq = to_access_sequence(schedule)
    else:
        seq = access_sequence_reference(schedule)
    cache: OrderedDict[tuple[str, int], bool] = OrderedDict()
    loads = evict_stores = 0
    seen: set[tuple[str, int]] = set()

    for key, write in seq:
        seen.add(key)
        if key in cache:
            dirty = cache.pop(key)
            cache[key] = dirty or write
        else:
            while len(cache) >= capacity:
                _victim, dirty = cache.popitem(last=False)
                if dirty:
                    evict_stores += 1
            cache[key] = write
            loads += 1

    flush = sum(1 for dirty in cache.values() if dirty)
    return LruReplayResult(
        capacity=capacity,
        loads=loads,
        stores=evict_stores + flush,
        n_accesses=len(seq),
        distinct=len(seen),
        evict_stores=evict_stores,
    )


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
    instead of a push-time snapshot.  (The seed version captured the dirty
    hint at push time and never checked it again, so its tie-break
    depended on every dirty-bit change coinciding with a fresh push.)
    """
    capacity = as_capacity(capacity)
    if isinstance(schedule, CompiledTrace):
        seq = to_access_sequence(schedule)
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
