"""Compiled trace IR: the array representation every replay consumes.

This package is the performance substrate of the analysis layers:

* :mod:`repro.trace.compiled` — :class:`CompiledTrace`, the element access
  stream of a schedule/op list as dense numpy arrays (interned element
  IDs, write flags, op boundaries) plus vectorized next-use/previous-
  access links;
* :mod:`repro.trace.replay` — array-based LRU and Belady/MIN cache
  replays over the IR, one engine per question (reuse distances for
  every LRU count, one grouped OPT-stack pass for every Belady capacity
  or sweep, skipped at or above the trace's live peak) plus the
  incremental LRU cursor the order searches use;
* :mod:`repro.trace.io` — the on-disk containers for compiled traces and
  for full schedules (integer step columns whose compute ops are rebuilt
  on first access): one checksummed gzip stream each, a JSON header line
  then the raw arrays, behind ``python -m repro trace``.

The tuple-per-touch walkers these engines replaced live in the test
suite as oracles (``tests/replay_oracles.py``: the access stream, LRU and
Belady/MIN), and every engine count is pinned to them bit for bit.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CompiledTrace": "compiled",
    "compile_trace": "compiled",
    "FORMAT_VERSIONS": "io",
    "load_schedule": "io",
    "load_trace": "io",
    "read_header": "io",
    "save_schedule": "io",
    "save_trace": "io",
    "BeladyReplayResult": "replay",
    "LruCursor": "replay",
    "LruLedger": "replay",
    "LruReplayResult": "replay",
    "belady_replay_trace": "replay",
    "lru_replay_trace": "replay",
    "sweep_replay_trace": "replay",
})
