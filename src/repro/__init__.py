"""repro — reproduction of "I/O-Optimal Algorithms for Symmetric Linear
Algebra Kernels" (Beaumont, Eyraud-Dubois, Vérité, Langou; SPAA 2022).

The package provides:

* :mod:`repro.machine` — an instrumented two-level memory machine (fast
  memory of ``S`` elements, explicit load/evict, exact I/O accounting),
  numeric with a NaN-poisoned shadow or counting-only;
* :mod:`repro.core` — the paper's contribution: triangle blocks, indexing
  families, the TBS and LBC schedules, lower bounds, and the Section 4
  proof machinery (balanced solutions, P''-optimum);
* :mod:`repro.baselines` — Bereux's OOC_SYRK / OOC_TRSM / OOC_CHOL, blocked
  GEMM and LU comparators, and naive LRU loop nests;
* :mod:`repro.kernels` — in-memory NumPy reference oracles and the
  operation-set combinatorics (``D(B)``, Prop. 3.4);
* :mod:`repro.analysis` — exact I/O predictors, operational-intensity
  rooflines, and sweep harnesses that regenerate every experiment;
* :mod:`repro.graph` — the dependency-graph scheduling engine: task-DAG
  extraction from recorded schedules, worklist re-scheduling under
  pluggable heuristics, Belady/MIN replay, and load/evict regeneration;
* :mod:`repro.trace` — the compiled trace IR: element access streams as
  dense numpy arrays, array-based LRU/Belady replays, and the compact
  on-disk format for traces and schedules;
* :mod:`repro.viz` — ASCII renderers for the paper's Figures 1–3.

Quickstart::

    import numpy as np
    from repro import TwoLevelMachine, tbs_syrk, syrk_lower_bound

    n, mcols, s = 60, 8, 15
    a = np.random.default_rng(0).standard_normal((n, mcols))
    m = TwoLevelMachine(s)
    m.add_matrix("A", a)
    m.add_matrix("C", np.zeros((n, n)))
    stats = tbs_syrk(m, "A", "C", range(n), range(mcols))
    print(stats.q, ">=", syrk_lower_bound(n, mcols, s))
    np.testing.assert_allclose(np.tril(m.result("C")), np.tril(a @ a.T))
"""

from .config import (
    DEFAULT_SEED,
    lbc_block_size,
    square_tile_side_for_memory,
    tiled_tbs_shape_for_memory,
    triangle_side_for_memory,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    MachineError,
    RedundantLoadError,
    ReproError,
    ResidencyError,
    ScheduleError,
    VerificationError,
)
from .machine import (
    ExplicitPebbleMachine,
    FastMemory,
    IOStats,
    LRUPebbleMachine,
    Region,
    SlowMemory,
    TwoLevelMachine,
)
from .core import (
    CyclicIndexingFamily,
    TBSPartition,
    cholesky_lower_bound,
    choose_c,
    lbc_cholesky,
    max_operational_intensity,
    plan_partition,
    syrk_lower_bound,
    tbs_syrk,
    tbs_tiled_syrk,
)
from .baselines import (
    naive_cholesky_lru,
    naive_syrk_lru,
    ooc_chol,
    ooc_gemm,
    ooc_lu,
    ooc_syrk,
    ooc_trsm,
)
from .kernels import (
    cholesky_reference,
    gemm_reference,
    lu_nopivot_reference,
    syrk_reference,
    trsm_right_lower_transpose,
)
from .graph import (
    DependencyGraph,
    belady_replay,
    dependency_graph,
    list_schedule,
    reschedule,
    rewrite_schedule,
)
from .trace import (
    CompiledTrace,
    compile_trace,
    load_schedule,
    load_trace,
    save_schedule,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SEED",
    "lbc_block_size",
    "square_tile_side_for_memory",
    "tiled_tbs_shape_for_memory",
    "triangle_side_for_memory",
    "CapacityError",
    "ConfigurationError",
    "MachineError",
    "RedundantLoadError",
    "ReproError",
    "ResidencyError",
    "ScheduleError",
    "VerificationError",
    "ExplicitPebbleMachine",
    "FastMemory",
    "IOStats",
    "LRUPebbleMachine",
    "Region",
    "SlowMemory",
    "TwoLevelMachine",
    "CyclicIndexingFamily",
    "TBSPartition",
    "cholesky_lower_bound",
    "choose_c",
    "lbc_cholesky",
    "max_operational_intensity",
    "plan_partition",
    "syrk_lower_bound",
    "tbs_syrk",
    "tbs_tiled_syrk",
    "naive_cholesky_lru",
    "naive_syrk_lru",
    "ooc_chol",
    "ooc_gemm",
    "ooc_lu",
    "ooc_syrk",
    "ooc_trsm",
    "cholesky_reference",
    "gemm_reference",
    "lu_nopivot_reference",
    "syrk_reference",
    "trsm_right_lower_transpose",
    "DependencyGraph",
    "belady_replay",
    "dependency_graph",
    "list_schedule",
    "reschedule",
    "rewrite_schedule",
    "CompiledTrace",
    "compile_trace",
    "load_schedule",
    "load_trace",
    "save_schedule",
    "save_trace",
    "__version__",
]
