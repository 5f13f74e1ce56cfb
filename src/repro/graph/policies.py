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
the replay is the chunked array engine.  The original tuple/heap walker is
the test suite's oracle (``tests/replay_oracles.py``), and the tests and
benchmark E13 pin every count to it, including the eviction-time share of
the stores (``evict_stores``) that the clean-victim tie-break decides.

Both replays walk the *same* element access sequence as the LRU replay,
so their load counts are directly comparable: for every schedule and
capacity, ``belady_replay(s, c).loads <= lru_replay(s, c).loads``.
"""

from __future__ import annotations

from ..sched.ops import ComputeOp
from ..sched.schedule import Schedule
from ..trace.compiled import CompiledTrace, compile_trace
from ..trace.replay import BeladyReplayResult, as_capacity, belady_replay_trace

__all__ = [
    "NEVER",
    "BeladyReplayResult",
    "belady_replay",
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
