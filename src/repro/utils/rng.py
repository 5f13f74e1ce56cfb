"""Seeded synthetic matrix generators.

The paper's experiments need no external data: SYRK takes any tall ``N x M``
matrix, Cholesky any symmetric positive definite matrix.  We generate both
from a seeded :class:`numpy.random.Generator` so every test, example and
bench is exactly reproducible.  SPD matrices are built as ``G Gᵀ + delta*I``
with ``delta`` scaled to guarantee a comfortably positive spectrum (the
schedules must not be numerically fragile, because the numeric machine's
verification compares against NumPy to 1e-10).
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_SEED


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def random_tall_matrix(n: int, m: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """An ``n x m`` standard-normal matrix (the SYRK input ``A``)."""
    return _rng(seed).standard_normal((n, m))


def random_spd_matrix(n: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """A well-conditioned ``n x n`` symmetric positive definite matrix.

    Built as ``G Gᵀ / n + I`` with ``G`` standard normal: eigenvalues are
    ``>= 1`` with high probability, keeping Cholesky pivots far from zero so
    that element-wise and blocked factorizations agree to tight tolerance.
    """
    g = _rng(seed).standard_normal((n, n))
    a = g @ g.T / max(n, 1) + np.eye(n)
    return (a + a.T) / 2.0


def random_diag_dominant_matrix(n: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """A strictly diagonally dominant ``n x n`` matrix (safe for LU without pivoting)."""
    rng = _rng(seed)
    a = rng.standard_normal((n, n))
    a[np.arange(n), np.arange(n)] = np.abs(a).sum(axis=1) + 1.0
    return a


def random_lower_triangular(
    n: int, seed: int | np.random.Generator | None = None, unit_diagonal: bool = False
) -> np.ndarray:
    """A well-conditioned lower-triangular ``n x n`` matrix (TRSM input ``L``).

    The diagonal is pushed away from zero (``|l_ii| >= 1``) so triangular
    solves stay well conditioned.
    """
    rng = _rng(seed)
    l = np.tril(rng.standard_normal((n, n)))
    d = np.arange(n)
    if unit_diagonal:
        l[d, d] = 1.0
    else:
        l[d, d] = np.sign(l[d, d]) * (np.abs(l[d, d]) + 1.0)
        l[d, d] = np.where(l[d, d] == 0.0, 1.0, l[d, d])
    return l
