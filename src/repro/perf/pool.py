"""Deterministic worker-pool primitives behind every ``--jobs`` flag.

Design rules, shared by all consumers:

* **Determinism first.**  Results are collected in *task order* (the
  executor's ``map`` preserves input order), so the merged output of a
  fan-out is a pure function of the task list — bit-identical whether it
  ran serially, on 2 workers or on 40.  Randomized tasks draw their seeds
  from :func:`task_seed`, which derives disjoint streams per task index;
  nothing ever depends on scheduling order or worker identity.
* **Serial fallback is the identity.**  ``jobs <= 1`` (or a single task)
  runs a plain in-process loop: no processes, no pickling, no import-time
  side effects — the code path the rest of the test suite already pins.
* **Probes stay in the parent.**  Worker processes start with the default
  null probe, so counters incremented inside a task are lost by design;
  the pool reports what it *can* see from the parent — ``pool.tasks``
  (tasks submitted), ``pool.workers`` (worker processes spawned; 0 on the
  serial path), ``pool.chunks`` (pickled task batches shipped; 0 on the
  serial path) — and wraps every map in the ``pool.map`` phase timer.
  Consumers that need engine counters from fan-out work emit them from
  the parent after the merge (see ``sweep_replay_trace``).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import Executor, Future
from typing import Callable, Iterable, Sequence, TypeVar

from ..errors import ConfigurationError
from ..obs.probe import get_probe, timed

T = TypeVar("T")
R = TypeVar("R")


def task_seed(seed: int, index: int) -> int:
    """RNG seed for fan-out task ``index`` of a run seeded with ``seed``.

    ``task_seed(seed, 0) == seed``: task 0 of any fan-out is the classic
    serial run, so portfolios are never-worse by construction — their
    deterministic merge includes the result the serial path would have
    produced.  Later indices hash ``(seed, index)`` through SHA-256 into
    disjoint 63-bit streams, avoiding the correlated-neighbor problem of
    ``seed + index`` arithmetic (two runs seeded 0 and 1 would share every
    chain but one).
    """
    if index < 0:
        raise ConfigurationError(f"task index must be >= 0, got {index}")
    if index == 0:
        return int(seed)
    digest = hashlib.sha256(f"repro.perf.task:{int(seed)}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _chunk_count(n_tasks: int, chunk_size: int) -> int:
    return -(-n_tasks // chunk_size)


class SearchPool:
    """A reusable deterministic fan-out pool (context manager).

    ``jobs <= 1`` never creates an executor: :meth:`map` is a plain loop.
    Otherwise the first parallel :meth:`map` lazily spins up one
    ``ProcessPoolExecutor`` that subsequent maps reuse, amortizing worker
    start-up across repeated fan-outs (the CLI's per-partitioner refine
    loop, repeated capacity sweeps).
    """

    def __init__(self, jobs: int = 1, chunk_size: int | None = None):
        self.jobs = int(jobs)
        self.chunk_size = chunk_size
        self._executor: Executor | None = None

    def __enter__(self) -> "SearchPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def _start(self) -> Executor:
        """The process executor, started on first use (importing it loads
        ``multiprocessing``, which a serial run never needs)."""
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            workers = max(1, self.jobs)
            self._executor = ProcessPoolExecutor(max_workers=workers)
            probe = get_probe()
            if probe.enabled:
                probe.count("pool.workers", workers)
        return self._executor

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Submit one task; returns its :class:`concurrent.futures.Future`.

        Unlike :meth:`map`, ``submit`` always goes through the process
        executor (created lazily with ``max(1, jobs)`` workers) — it exists
        for callers that need a real future to bridge into another
        scheduler (the serve front end wraps it with
        ``asyncio.wrap_future``), so running inline would defeat the point.
        ``fn`` and ``args`` must be picklable.
        """
        executor = self._start()
        probe = get_probe()
        if probe.enabled:
            probe.count("pool.tasks", 1)
        return executor.submit(fn, *args)

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task; results in task order, always."""
        items: Sequence[T] = list(tasks)
        probe = get_probe()
        with timed("pool.map"):
            if self.jobs <= 1 or len(items) <= 1:
                results = [fn(task) for task in items]
                if probe.enabled:
                    probe.count("pool.tasks", len(items))
                return results
            chunk = self.chunk_size or max(1, -(-len(items) // self.jobs))
            results = list(self._start().map(fn, items, chunksize=chunk))
            if probe.enabled:
                probe.count("pool.tasks", len(items))
                probe.count("pool.chunks", _chunk_count(len(items), chunk))
        return results


def parallel_map(
    fn: Callable[[T], R],
    tasks: Iterable[T],
    *,
    jobs: int = 1,
    chunk_size: int | None = None,
) -> list[R]:
    """One-shot order-preserving map over ``jobs`` worker processes.

    The workhorse behind ``--jobs``: ``jobs <= 1`` (or a single task)
    degrades to an in-process loop with identical results, so callers
    need no serial/parallel branching of their own.  ``fn`` must be a
    module-level function and tasks/results picklable when ``jobs > 1``.
    """
    items = list(tasks)
    jobs = min(int(jobs), len(items))
    with SearchPool(jobs, chunk_size) as pool:
        return pool.map(fn, items)
