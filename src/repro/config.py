"""Derived shape parameters and library-wide defaults.

The paper's machine model has a single parameter: the fast-memory capacity
``S`` (in matrix *elements*).  Algorithms derive their internal shapes from
``S``:

* element-level TBS uses the largest triangle side ``k`` with
  ``k(k+1)/2 <= S`` (one triangle block of ``C`` plus one ``k``-vector of
  ``A`` exactly fill the memory, Section 5.1.1 of the paper);
* tiled TBS uses tile side ``b`` and tile-triangle side ``k`` with
  ``b^2 * k(k-1)/2 + k*b <= S`` (Section 5.1.4);
* the Bereux one-tile baselines use square tiles of side ``s`` with
  ``s^2 + 2s <= S`` (one tile plus two streamed length-``s`` vectors).

The helper functions below compute these derived shape parameters (and
are unit-tested against the inequalities above).
"""

from __future__ import annotations

import math

from .errors import ConfigurationError

#: Default RNG seed used across examples/benches so results are reproducible.
DEFAULT_SEED = 20220711  # SPAA'22 began July 11, 2022.

#: Comparison tolerance for numeric verification against NumPy references.
VERIFY_RTOL = 1e-10
VERIFY_ATOL = 1e-10


def triangle_side_for_memory(S: int) -> int:
    """Largest ``k`` with ``k(k+1)/2 <= S`` (element-level TBS, Section 5.1.1).

    The memory must fit a triangle block of ``C`` with side ``k``
    (``k(k-1)/2`` elements) plus a ``k``-vector of ``A``, i.e. ``k(k+1)/2``
    elements in total.

    >>> triangle_side_for_memory(15)
    5
    >>> triangle_side_for_memory(14)
    4
    """
    if S < 1:
        raise ConfigurationError(f"S must be >= 1, got {S}")
    # Solve k(k+1)/2 <= S  <=>  k <= (sqrt(8S+1)-1)/2.
    k = int((math.isqrt(8 * S + 1) - 1) // 2)
    # Guard against isqrt flooring interactions.
    while (k + 1) * (k + 2) // 2 <= S:
        k += 1
    while k * (k + 1) // 2 > S:
        k -= 1
    return k


def square_tile_side_for_memory(S: int) -> int:
    """Largest ``s`` with ``s^2 + 2s <= S`` (one-tile narrow-block baselines).

    The Bereux one-tile algorithms keep one ``s x s`` tile of the output
    resident plus two streamed length-``s`` vectors.

    >>> square_tile_side_for_memory(15)
    3
    >>> square_tile_side_for_memory(8)
    2
    """
    if S < 3:
        raise ConfigurationError(f"S must be >= 3 for a 1x1 tile plus two vectors, got {S}")
    s = int(math.isqrt(S))
    while s * s + 2 * s > S:
        s -= 1
    if s < 1:
        raise ConfigurationError(f"S={S} cannot fit any square tile with streaming vectors")
    return s


def tiled_tbs_shape_for_memory(S: int, k: int) -> int:
    """Largest tile side ``b`` with ``b^2 * k(k-1)/2 + k*b <= S`` (Section 5.1.4).

    ``k`` is the side of the triangle *of tiles*; memory holds ``k(k-1)/2``
    tiles of ``b x b`` elements plus one streamed column of ``k`` length-``b``
    segments of ``A``.
    """
    if k < 2:
        raise ConfigurationError(f"tile-triangle side k must be >= 2, got {k}")
    tri = k * (k - 1) // 2
    if S < tri + k:
        raise ConfigurationError(
            f"S={S} too small for k={k} (needs >= {tri + k} for b=1)"
        )
    b = int(math.isqrt(max(1, S // tri)))
    while b * b * tri + k * b > S:
        b -= 1
    while (b + 1) * (b + 1) * tri + k * (b + 1) <= S:
        b += 1
    if b < 1:
        raise ConfigurationError(f"S={S}, k={k}: no feasible tile side")
    return b


def lbc_block_size(N: int) -> int:
    """The paper's choice ``b = sqrt(N)`` for LBC, rounded to a divisor of N.

    Theorem 5.7's analysis takes ``b = sqrt(N)``; any ``b = Theta(sqrt(N))``
    gives the same leading term.  We return the divisor of ``N`` closest to
    ``sqrt(N)`` so that the algorithm's ``b | N`` assumption holds exactly.
    """
    if N < 1:
        raise ConfigurationError(f"N must be positive, got {N}")
    target = math.sqrt(N)
    best = 1
    for d in range(1, N + 1):
        if d * d > N:
            break
        if N % d == 0:
            for cand in (d, N // d):
                if abs(cand - target) < abs(best - target):
                    best = cand
    return best
