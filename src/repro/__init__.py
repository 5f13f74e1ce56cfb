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

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_SEED": "config",
    "lbc_block_size": "config",
    "square_tile_side_for_memory": "config",
    "tiled_tbs_shape_for_memory": "config",
    "triangle_side_for_memory": "config",
    "CapacityError": "errors",
    "ConfigurationError": "errors",
    "MachineError": "errors",
    "RedundantLoadError": "errors",
    "ReproError": "errors",
    "ResidencyError": "errors",
    "ScheduleError": "errors",
    "VerificationError": "errors",
    "ExplicitPebbleMachine": "machine",
    "FastMemory": "machine",
    "IOStats": "machine",
    "LRUPebbleMachine": "machine",
    "Region": "machine",
    "SlowMemory": "machine",
    "TwoLevelMachine": "machine",
    "CyclicIndexingFamily": "core",
    "TBSPartition": "core",
    "cholesky_lower_bound": "core",
    "choose_c": "core",
    "lbc_cholesky": "core",
    "max_operational_intensity": "core",
    "plan_partition": "core",
    "syrk_lower_bound": "core",
    "tbs_syrk": "core",
    "tbs_tiled_syrk": "core",
    "naive_cholesky_lru": "baselines",
    "naive_syrk_lru": "baselines",
    "ooc_chol": "baselines",
    "ooc_gemm": "baselines",
    "ooc_lu": "baselines",
    "ooc_syrk": "baselines",
    "ooc_trsm": "baselines",
    "cholesky_reference": "kernels",
    "gemm_reference": "kernels",
    "lu_nopivot_reference": "kernels",
    "syrk_reference": "kernels",
    "trsm_right_lower_transpose": "kernels",
    "DependencyGraph": "graph",
    "belady_replay": "graph",
    "dependency_graph": "graph",
    "list_schedule": "graph",
    "reschedule": "graph",
    "rewrite_schedule": "graph",
    "CompiledTrace": "trace",
    "compile_trace": "trace",
    "load_schedule": "trace",
    "load_trace": "trace",
    "save_schedule": "trace",
    "save_trace": "trace",
})
__all__.append("__version__")
