"""In-memory reference kernels, op-set combinatorics, and flop conventions.

``reference`` holds the NumPy oracles every schedule is verified against;
``opsets`` implements the paper's operation sets 𝒮 (SYRK) and 𝒞 (Cholesky
updates) together with the data-access functional ``D(B)`` of Proposition
3.4; ``flops`` centralizes work-counting conventions.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "syrk_reference": "reference",
    "cholesky_reference": "reference",
    "cholesky_lower_in_place": "reference",
    "cholesky_element_loops": "reference",
    "syrk_element_loops": "reference",
    "trsm_right_lower_transpose": "reference",
    "trsm_element_loops": "reference",
    "gemm_reference": "reference",
    "lu_nopivot_reference": "reference",
    "lu_nopivot_in_place": "reference",
    "syrk_opset_size": "opsets",
    "cholesky_update_count": "opsets",
    "iter_syrk_ops": "opsets",
    "iter_cholesky_updates": "opsets",
    "restriction": "opsets",
    "symmetric_footprint": "opsets",
    "data_accessed": "opsets",
    "syrk_mults": "flops",
    "syrk_flops": "flops",
    "cholesky_mults": "flops",
    "cholesky_flops": "flops",
    "gemm_mults": "flops",
    "gemm_flops": "flops",
    "trsm_mults": "flops",
    "trsm_flops": "flops",
    "lu_mults": "flops",
    "lu_flops": "flops",
})
