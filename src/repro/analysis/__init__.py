"""Analysis layer: exact I/O predictors, OI rooflines, the Section 4 optimum
cross-checks, and the sweep harness that regenerates every experiment."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ooc_syrk_model": "model",
    "ooc_syrk_rect_model": "model",
    "ooc_syrk_strip_model": "model",
    "tbs_model": "model",
    "tbs_tiled_model": "model",
    "ooc_trsm_model": "model",
    "ooc_chol_model": "model",
    "ooc_lu_model": "model",
    "ooc_gemm_model": "model",
    "lbc_model": "model",
    "lbc_term_model": "model",
    "ooc_syr2k_model": "model",
    "tbs_syr2k_model": "model",
    "IOPrediction": "model",
    "measured_oi": "oi",
    "oi_ceiling": "oi",
    "oi_gap": "oi",
    "LruReplayResult": "lru_replay",
    "lru_competitiveness": "lru_replay",
    "lru_replay": "lru_replay",
    "numeric_p_doubleprime": "optimum",
    "verify_theorem41_chain": "optimum",
    "SweepRow": "sweep",
    "run_syrk_once": "sweep",
    "run_cholesky_once": "sweep",
    "sweep_syrk": "sweep",
    "sweep_cholesky": "sweep",
    "roofline_rows": "roofline",
})
