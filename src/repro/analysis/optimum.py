"""Numeric cross-checks of the Section 4 optimization chain (experiment E1).

Three independent evaluations of "the largest subcomputation that touches at
most X elements":

1. :func:`repro.core.balanced.enumerate_balanced_optimum` — exact integer
   optimum of P'(X) by enumeration;
2. :func:`repro.core.balanced.solve_p_doubleprime` — the paper's closed-form
   KKT optimum of the continuous relaxation P''(X);
3. :func:`numeric_p_doubleprime` — an independent scipy (SLSQP) maximization
   of P''(X), making sure the closed form was derived correctly.

Theorem 4.1 then caps everything with ``sqrt(2)/(3 sqrt 3) X^{3/2}``;
:func:`verify_theorem41_chain` asserts the whole chain
``enumerate <= H'' <= bound`` and returns the values for reporting.

SciPy is imported inside :func:`numeric_p_doubleprime`, when it is called,
so ``import repro`` never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.balanced import (
    enumerate_balanced_optimum,
    max_ops_bound,
    solve_p_doubleprime,
)
from ..errors import VerificationError


@dataclass(frozen=True)
class NumericOptimum:
    """SLSQP solution of P''(X)."""

    x: float
    i_star: float
    k_star: float
    value: float
    success: bool


def numeric_p_doubleprime(x: float, i0: float | None = None, k0: float | None = None) -> NumericOptimum:
    """Maximize ``K I(I-1)/2`` s.t. ``I(I-1)/2 + K I <= X`` with SLSQP.

    Started near (but not at) the closed-form optimum by default; used to
    confirm the KKT algebra of Lemma 4.6 independently.
    """
    from scipy.optimize import minimize

    closed = solve_p_doubleprime(x)
    start = np.array(
        [i0 if i0 is not None else max(closed.i_star * 0.7, 1.1),
         k0 if k0 is not None else max(closed.k_star * 1.4, 0.1)]
    )

    def neg_objective(v: np.ndarray) -> float:
        i, k = v
        return -(k * i * (i - 1.0) / 2.0)

    constraints = [
        {"type": "ineq", "fun": lambda v: x - (v[0] * (v[0] - 1.0) / 2.0 + v[1] * v[0])},
    ]
    bounds = [(1.0, None), (0.0, None)]
    res = minimize(
        neg_objective,
        start,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 1000, "ftol": 1e-9},
    )
    return NumericOptimum(
        x=float(x), i_star=float(res.x[0]), k_star=float(res.x[1]),
        value=float(-res.fun), success=bool(res.success),
    )


@dataclass(frozen=True)
class Theorem41Check:
    """The E1 chain at one value of X."""

    x: int
    enumerated: int          # exact integer optimum of P'(X)
    continuous: float        # closed-form H''(X)
    numeric: float           # SLSQP value
    bound: float             # sqrt(2)/(3 sqrt 3) X^{3/2}

    @property
    def tightness(self) -> float:
        """How much of the Theorem 4.1 bound the integer optimum achieves."""
        return self.enumerated / self.bound if self.bound else 0.0


def verify_theorem41_chain(x: int, rtol: float = 1e-6) -> Theorem41Check:
    """Assert ``enumerate(P') <= H''(X) <= bound(X)`` and closed == numeric.

    Raises :class:`VerificationError` on any violation; returns all values.
    """
    enum = enumerate_balanced_optimum(x)
    closed = solve_p_doubleprime(float(x))
    numeric = numeric_p_doubleprime(float(x))
    bound = max_ops_bound(float(x))

    if enum.value > closed.value * (1.0 + rtol) + 1e-9:
        raise VerificationError(
            f"X={x}: integer optimum {enum.value} exceeds continuous optimum {closed.value}"
        )
    if closed.value > bound * (1.0 + rtol) + 1e-9:
        raise VerificationError(
            f"X={x}: H''(X)={closed.value} exceeds Theorem 4.1 bound {bound}"
        )
    if numeric.success and abs(numeric.value - closed.value) > max(1.0e-4 * closed.value, 1e-6):
        raise VerificationError(
            f"X={x}: SLSQP value {numeric.value} != closed form {closed.value}"
        )
    return Theorem41Check(
        x=x, enumerated=enum.value, continuous=closed.value,
        numeric=numeric.value, bound=bound,
    )
