"""LRU replay: what would a schedule's op *order* cost without explicit control?

The paper's model gives the program explicit control of fast memory, and
all its algorithms exploit that.  Real cache hierarchies are LRU-managed.
This tool takes a recorded schedule, strips the explicit loads/evicts, and
replays only the *compute ops* (their read/write regions, in order) through
an element-granular LRU cache of capacity ``S`` — answering: how much of
TBS/LBC's advantage survives under hardware-style replacement, and how much
slack does LRU need (the classic resource-augmentation question)?

The default :func:`lru_replay` compiles the schedule to the array IR
(:mod:`repro.trace`) and counts misses and stores from the trace's reuse
distances (:func:`repro.trace.replay.lru_replay_trace`) — one to two
orders of magnitude faster than walking Python tuples, which is what opens
up N in the thousands (benchmark E13).  The original tuple/OrderedDict
walker is the test suite's oracle (``tests/replay_oracles.py``), and the
tests and E13 pin every count to it.

Findings this enables (asserted in tests):

* on blocked schedules the access order is cache-friendly: LRU at the same
  capacity lands within a small constant of the explicit volume, and with
  modest augmentation (~2x) it matches or beats it (LRU keeps tiles around
  "for free" where the explicit schedule conservatively evicts);
* the *relative* TBS-vs-OCS advantage survives LRU replacement — the paper's
  insight is about the order of computations, not about explicit control.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..sched.schedule import Schedule
from ..trace.compiled import CompiledTrace, compile_trace
from ..trace.replay import LruReplayResult, as_capacity, lru_replay_trace

__all__ = [
    "LruReplayResult",
    "lru_replay",
    "lru_competitiveness",
]


def lru_replay(schedule: Schedule | CompiledTrace, capacity: int) -> LruReplayResult:
    """Replay the compute ops of ``schedule`` under an LRU cache.

    Accepts a recorded :class:`~repro.sched.schedule.Schedule` or an
    already-compiled :class:`~repro.trace.compiled.CompiledTrace` (compile
    once when replaying the same order at many capacities).  Walks the
    canonical element access sequence shared with the Belady/MIN replay so
    the two are directly comparable; writes mark elements dirty.  Evicted
    dirty elements count as stores, as do dirty elements flushed at the
    end.
    """
    return lru_replay_trace(compile_trace(schedule), as_capacity(capacity))


def lru_competitiveness(schedule: Schedule, explicit_loads: int, capacity: int) -> float:
    """``Q_LRU(capacity) / Q_explicit``: how close hardware replacement gets.

    Values near 1 mean the schedule's order is intrinsically cache-friendly;
    large values mean it genuinely relies on explicit control.
    """
    if explicit_loads <= 0:
        raise ConfigurationError("explicit_loads must be positive")
    return lru_replay(schedule, capacity).loads / explicit_loads
