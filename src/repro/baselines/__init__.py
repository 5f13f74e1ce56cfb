"""Baseline out-of-core schedules: Bereux's one-tile narrow-block algorithms
(OOC_SYRK / OOC_TRSM / OOC_CHOL), a blocked GEMM and LU for the
operational-intensity comparison, and naive LRU loop nests for motivation."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ooc_syrk": "ooc_syrk",
    "ooc_syrk_rect": "ooc_syrk",
    "ooc_syrk_strip": "ooc_syrk",
    "ooc_trsm": "ooc_trsm",
    "ooc_chol": "ooc_chol",
    "ooc_gemm": "gemm",
    "ooc_lu": "lu",
    "naive_syrk_lru": "naive",
    "naive_cholesky_lru": "naive",
})
