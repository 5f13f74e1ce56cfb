"""Process-parallel search fabric: deterministic fan-out over worker pools.

Every search engine in this repository — the order annealer
(:mod:`repro.graph.search`), the partition refiner
(:mod:`repro.parallel.refine`), the capacity-sweep replays
(:mod:`repro.trace.replay`) — is a pure function of ``(inputs, seed)``.
That makes them trivially fan-out-able: run K independent instances in
worker processes, merge with a deterministic reduction, and the result is
bit-identical to running the same K instances serially in index order.
This package supplies the one shared mechanism all of them use:

* :func:`repro.perf.pool.task_seed` — SHA-256-derived per-task RNG seeds,
  disjoint across task indices, with ``task_seed(seed, 0) == seed`` so a
  single-task fan-out reproduces the classic serial run bit for bit;
* :func:`repro.perf.pool.parallel_map` — an order-preserving map over a
  ``ProcessPoolExecutor`` with chunking, probe counter/timer integration
  (``pool.{tasks,workers,chunks}``, ``pool.map``), and an in-process
  serial fallback at ``jobs <= 1`` that touches no multiprocessing
  machinery at all;
* :class:`repro.perf.pool.SearchPool` — the reusable form for call sites
  that fan out repeatedly (one executor, many maps).

Task functions must be module-level (picklable); results are merged in
task order, never completion order, so parallelism degree changes
wall-clock only — every merged result is independent of ``jobs``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SearchPool": "pool",
    "parallel_map": "pool",
    "task_seed": "pool",
})
