"""Compiled trace IR: the array representation every replay consumes.

This package is the performance substrate of the analysis layers:

* :mod:`repro.trace.compiled` — :class:`CompiledTrace`, the element access
  stream of a schedule/op list as dense numpy arrays (interned element
  IDs, write flags, op boundaries) plus vectorized next-use/previous-
  access links;
* :mod:`repro.trace.replay` — array-based LRU and Belady/MIN cache
  replays over the IR, one engine per call shape (reuse distances for
  every LRU count, the chunked simulation for one Belady capacity, one
  grouped OPT-stack pass for a Belady sweep) plus the incremental LRU
  cursor the order searches use;
* :mod:`repro.trace.io` — compact ``.npz`` + JSON-header on-disk formats
  for compiled traces and for full schedules (integer step columns whose
  compute ops are rebuilt on first access), behind ``python -m repro
  trace``.

The tuple-per-touch walkers these engines replaced live in the test
suite as oracles (``tests/replay_oracles.py``: the access stream, LRU and
Belady/MIN), and every engine count is pinned to them bit for bit.
"""

from .compiled import CompiledTrace, compile_trace
from .io import (
    FORMAT_VERSIONS,
    file_kind,
    load_schedule,
    load_trace,
    save_schedule,
    save_trace,
)
from .replay import (
    BeladyReplayResult,
    LruCursor,
    LruLedger,
    LruReplayResult,
    belady_replay_trace,
    lru_replay_trace,
    sweep_replay_trace,
)

__all__ = [
    "CompiledTrace",
    "compile_trace",
    "FORMAT_VERSIONS",
    "file_kind",
    "load_schedule",
    "load_trace",
    "save_schedule",
    "save_trace",
    "BeladyReplayResult",
    "LruCursor",
    "LruLedger",
    "LruReplayResult",
    "belady_replay_trace",
    "lru_replay_trace",
    "sweep_replay_trace",
]
