"""Compute ops: the vectorized units of work schedules execute on the machine.

Every op declares the regions it reads and writes (the machine asserts these
are resident — Section 3 of the paper: "an operation can only be performed
if the corresponding input data is in fast memory") and knows how to apply
itself numerically to the machine's workspace arrays.  Ops never touch
elements outside their declared regions: on a numeric machine everything
else is NaN-poisoned, so a sloppy ``apply`` would corrupt verification.

The op granularities match the paper's algorithms:

* :class:`OuterColsUpdate` — rank-1 tile update ``C[I,J] += s * A[I,ka] (x) B[J,kb]``,
  the inner step of OOC_SYRK (square tiles), tiled TBS, OOC_TRSM and
  OOC_CHOL panel updates (with ``s = -1``);
* :class:`TriangleUpdate` — the triangle-block update of TBS (Algorithm 4's
  two inner loops, vectorized): ``C[r,r'] += s * A[r,k] A[r',k]`` over pairs
  ``r > r'`` (or ``r >= r'`` on diagonal tiles) of a row set ``R``;
* :class:`GemmOuterUpdate` — ``C[I,J] += s * A[I,k] (x) B[k,J]`` (row-segment
  second operand) for the out-of-core LU baseline;
* :class:`TrsmSolveStep` — one column of a right-triangular solve against a
  streamed row of the triangular tile (the narrow-block trick that lets the
  one-tile algorithms avoid holding two tiles);
* :class:`CholFactorResident` — in-place Cholesky of a fully resident
  diagonal tile (zero I/O, as in the model: resident work is free).

Flop accounting follows the element-op convention so that blocked and
element-level schedules report identical work: a multiply-add is 1 mult /
2 flops, a division 1 mult / 1 flop, a square root 0 mults / 1 flop.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..machine.regions import Region, tril_pairs
from ..utils.intervals import as_index_array


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array the op derived itself read-only (ops never change)."""
    arr.setflags(write=False)
    return arr


class ComputeOp:
    """Base class: reads/writes declarations + numeric apply + work counts."""

    name: str = "compute"
    mults: int = 0
    flops: int = 0

    def reads(self) -> list[Region]:  # pragma: no cover - abstract
        raise NotImplementedError

    def writes(self) -> list[Region]:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply(self, m: TwoLevelMachine) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class OuterColsUpdate(ComputeOp):
    """``C[I, J] += sign * outer(A[I, ka], B[J, kb])``.

    Both streamed operands are *column* segments; ``A`` and ``B`` may be the
    same matrix (SYRK: ``B = A`` and ``ka = kb``; use
    :func:`syrk_outer_update`).  This is the inner step of every square-tile
    schedule in the library.
    """

    name = "outer_cols"

    def __init__(self, m: TwoLevelMachine, c: str, a: str, b: str, I, J, ka: int, kb: int, sign: float = 1.0):
        self.c, self.a, self.b = c, a, b
        self.I = as_index_array(I)
        self.J = as_index_array(J)
        self.ka, self.kb = int(ka), int(kb)
        self.sign = float(sign)
        self._c_region = m.tile(c, self.I, self.J)
        self._a_region = m.column_segment(a, self.I, self.ka)
        self._b_region = m.column_segment(b, self.J, self.kb)
        self.mults = int(self.I.size * self.J.size)
        self.flops = 2 * self.mults

    def reads(self) -> list[Region]:
        return [self._a_region, self._b_region, self._c_region]

    def writes(self) -> list[Region]:
        return [self._c_region]

    def apply(self, m: TwoLevelMachine) -> None:
        cw = m.workspace(self.c)
        aw = m.workspace(self.a)
        bw = m.workspace(self.b)
        u = aw[self.I, self.ka]
        v = bw[self.J, self.kb]
        cw[np.ix_(self.I, self.J)] += self.sign * np.outer(u, v)


def syrk_outer_update(m: TwoLevelMachine, c: str, a: str, I, J, k: int, sign: float = 1.0) -> OuterColsUpdate:
    """SYRK rank-1 tile update ``C[I,J] += sign * A[I,k] (x) A[J,k]``."""
    return OuterColsUpdate(m, c, a, a, I, J, k, k, sign)


class TriangleUpdate(ComputeOp):
    """Triangle-block update over a (possibly scattered) row set ``R``.

    ``C[r, r'] += sign * A[r, k] * A[r', k]`` for all pairs ``r > r'`` of
    ``R`` (``r >= r'`` when ``include_diagonal``).  With scattered ``R``
    this is exactly the TBS block update (one element per square zone); with
    contiguous ``R`` it is the diagonal-tile update of OOC_SYRK.

    Work: ``|R|(|R|-1)/2`` (+``|R|`` with diagonal) multiply-adds, i.e. one
    multiply and two flops each — identical to executing Algorithm 4's two
    inner loops element by element.
    """

    name = "triangle_update"

    def __init__(self, m: TwoLevelMachine, c: str, a: str, R, k: int, sign: float = 1.0, include_diagonal: bool = False):
        self.c, self.a = c, a
        self.R = _frozen(np.sort(as_index_array(R)))
        self.k = int(k)
        self.sign = float(sign)
        self.include_diagonal = bool(include_diagonal)
        il, jl = tril_pairs(self.R.size, 0 if include_diagonal else -1)
        self._il, self._jl = il, jl
        # The region constructor rejects a repeated row; its flat lists the
        # pairs of the sorted R in tril_pairs order, so it is the target.
        self._c_region = m.lower_tile(c, self.R, strict=not include_diagonal)
        self._target_flat = self._c_region.flat
        self._a_region = m.column_segment(a, self.R, self.k)
        self.mults = int(il.size)
        self.flops = 2 * self.mults

    def reads(self) -> list[Region]:
        return [self._a_region, self._c_region]

    def writes(self) -> list[Region]:
        return [self._c_region]

    def apply(self, m: TwoLevelMachine) -> None:
        cw = m.workspace(self.c)
        aw = m.workspace(self.a)
        v = aw[self.R, self.k]
        contrib = self.sign * v[self._il] * v[self._jl]
        cw.ravel()[self._target_flat] += contrib


class GemmOuterUpdate(ComputeOp):
    """``C[I, J] += sign * outer(A[I, k], B[k, J])`` (row-segment second operand).

    The inner step of the out-of-core LU baseline, where the trailing update
    streams a column of ``L`` and a row of ``U``.
    """

    name = "gemm_outer"

    def __init__(self, m: TwoLevelMachine, c: str, a: str, b: str, I, J, k: int, sign: float = 1.0):
        self.c, self.a, self.b = c, a, b
        self.I = as_index_array(I)
        self.J = as_index_array(J)
        self.k = int(k)
        self.sign = float(sign)
        self._c_region = m.tile(c, self.I, self.J)
        self._a_region = m.column_segment(a, self.I, self.k)
        self._b_region = m.row_segment(b, self.k, self.J)
        self.mults = int(self.I.size * self.J.size)
        self.flops = 2 * self.mults

    def reads(self) -> list[Region]:
        return [self._a_region, self._b_region, self._c_region]

    def writes(self) -> list[Region]:
        return [self._c_region]

    def apply(self, m: TwoLevelMachine) -> None:
        cw = m.workspace(self.c)
        aw = m.workspace(self.a)
        bw = m.workspace(self.b)
        u = aw[self.I, self.k]
        v = bw[self.k, self.J]
        cw[np.ix_(self.I, self.J)] += self.sign * np.outer(u, v)


class TrsmSolveStep(ComputeOp):
    """One column of the in-tile right-triangular solve ``X Lᵀ = X``.

    With the tile ``X[I, Jcols]`` resident and its columns ``Jcols[:t]``
    already solved, compute column ``t``::

        X[I, J[t]] = (X[I, J[t]] - X[I, J[:t]] @ L[J[t], J[:t]]) / L[J[t], J[t]]

    reading the streamed row segment ``L[J[t], J[:t+1]]``.  This is the
    narrow-block trick of the one-tile OOC_TRSM / OOC_CHOL variants: the
    triangular tile is never held whole, only one row at a time
    (``s(s+1)/2`` extra traffic per tile — a lower-order term).
    """

    name = "trsm_solve_step"

    def __init__(self, m: TwoLevelMachine, x: str, l: str, I, Jcols, t: int):
        self.x, self.l = x, l
        self.I = as_index_array(I)
        self.Jcols = as_index_array(Jcols)
        self.t = int(t)
        if not (0 <= self.t < self.Jcols.size):
            raise ConfigurationError(f"solve step t={t} out of range for {self.Jcols.size} columns")
        self._x_read = m.tile(x, self.I, self.Jcols[: self.t + 1])
        self._x_write = m.column_segment(x, self.I, int(self.Jcols[self.t]))
        self._l_row = m.row_segment(l, int(self.Jcols[self.t]), self.Jcols[: self.t + 1])
        # t multiply-adds per row for the dot product, plus one division.
        self.mults = int(self.I.size * (self.t + 1))
        self.flops = int(self.I.size * (2 * self.t + 1))

    def reads(self) -> list[Region]:
        return [self._x_read, self._l_row]

    def writes(self) -> list[Region]:
        return [self._x_write]

    def apply(self, m: TwoLevelMachine) -> None:
        xw = m.workspace(self.x)
        lw = m.workspace(self.l)
        jt = int(self.Jcols[self.t])
        if self.t:
            prev = self.Jcols[: self.t]
            lrow = lw[jt, prev]
            acc = xw[np.ix_(self.I, prev)] @ lrow
            xw[self.I, jt] = (xw[self.I, jt] - acc) / lw[jt, jt]
        else:
            xw[self.I, jt] = xw[self.I, jt] / lw[jt, jt]


# Canonical work-count definitions live in kernels.flops; re-exported here
# because the resident-factor op credits them.
from ..kernels.flops import cholesky_flops, cholesky_mults  # noqa: E402


class CholFactorResident(ComputeOp):
    """In-place Cholesky of the resident lower triangle of ``A[R, R]``.

    The tile (including its diagonal) must be resident; the op gathers the
    lower triangle, factors it with the library's reference kernel, and
    scatters the factor back over the same elements.  It performs zero I/O —
    resident work is free in the model — which is why OOC_CHOL's diagonal
    factorizations contribute only lower-order traffic.
    """

    name = "chol_factor_resident"

    def __init__(self, m: TwoLevelMachine, a: str, R):
        self.a = a
        self.R = _frozen(np.sort(as_index_array(R)))
        n = self.R.size
        self._il, self._jl = tril_pairs(n, 0)
        self._region = m.lower_tile(a, self.R, strict=False)
        self._flat = self._region.flat  # the tile's pairs in tril_pairs order
        self.mults = cholesky_mults(n)
        self.flops = cholesky_flops(n)

    def reads(self) -> list[Region]:
        return [self._region]

    def writes(self) -> list[Region]:
        return [self._region]

    def apply(self, m: TwoLevelMachine) -> None:
        from ..kernels.reference import cholesky_lower_in_place

        aw = m.workspace(self.a)
        n = self.R.size
        tile = np.zeros((n, n), dtype=np.float64)
        tile[self._il, self._jl] = aw.ravel()[self._flat]
        cholesky_lower_in_place(tile)
        aw.ravel()[self._flat] = tile[self._il, self._jl]


class UpperSolveStep(ComputeOp):
    """One column of the in-tile solve ``X U = X`` (``U`` upper triangular).

    With the tile ``X[I, Jcols]`` resident and columns ``Jcols[:t]`` solved::

        X[I, J[t]] = (X[I, J[t]] - X[I, J[:t]] @ U[J[:t], J[t]]) / U[J[t], J[t]]

    streaming the *column* segment ``U[J[:t+1], J[t]]``.  Used by the
    out-of-core LU baseline to scale sub-diagonal panels into ``L``.
    """

    name = "upper_solve_step"

    def __init__(self, m: TwoLevelMachine, x: str, u: str, I, Jcols, t: int):
        self.x, self.u = x, u
        self.I = as_index_array(I)
        self.Jcols = as_index_array(Jcols)
        self.t = int(t)
        if not (0 <= self.t < self.Jcols.size):
            raise ConfigurationError(f"solve step t={t} out of range for {self.Jcols.size} columns")
        self._x_read = m.tile(x, self.I, self.Jcols[: self.t + 1])
        self._x_write = m.column_segment(x, self.I, int(self.Jcols[self.t]))
        self._u_col = m.column_segment(u, self.Jcols[: self.t + 1], int(self.Jcols[self.t]))
        self.mults = int(self.I.size * (self.t + 1))
        self.flops = int(self.I.size * (2 * self.t + 1))

    def reads(self) -> list[Region]:
        return [self._x_read, self._u_col]

    def writes(self) -> list[Region]:
        return [self._x_write]

    def apply(self, m: TwoLevelMachine) -> None:
        xw = m.workspace(self.x)
        uw = m.workspace(self.u)
        jt = int(self.Jcols[self.t])
        if self.t:
            prev = self.Jcols[: self.t]
            ucol = uw[prev, jt]
            acc = xw[np.ix_(self.I, prev)] @ ucol
            xw[self.I, jt] = (xw[self.I, jt] - acc) / uw[jt, jt]
        else:
            xw[self.I, jt] = xw[self.I, jt] / uw[jt, jt]


class UnitLowerSolveStep(ComputeOp):
    """One row of the in-tile solve ``L X = X`` (``L`` unit lower triangular).

    With the tile ``X[Irows, J]`` resident and rows ``Irows[:t]`` solved::

        X[I[t], J] = X[I[t], J] - L[I[t], I[:t]] @ X[I[:t], J]

    streaming the row segment ``L[I[t], I[:t]]`` (the unit diagonal needs no
    division and no load).  Used by the LU baseline's above-diagonal tiles.
    """

    name = "unit_lower_solve_step"

    def __init__(self, m: TwoLevelMachine, x: str, l: str, Irows, J, t: int):
        self.x, self.l = x, l
        self.Irows = as_index_array(Irows)
        self.J = as_index_array(J)
        self.t = int(t)
        if not (0 <= self.t < self.Irows.size):
            raise ConfigurationError(f"solve step t={t} out of range for {self.Irows.size} rows")
        self._x_read = m.tile(x, self.Irows[: self.t + 1], self.J)
        self._x_write = m.row_segment(x, int(self.Irows[self.t]), self.J)
        if self.t:
            self._l_row = m.row_segment(l, int(self.Irows[self.t]), self.Irows[: self.t])
        else:
            self._l_row = None
        self.mults = int(self.J.size * self.t)
        self.flops = int(self.J.size * 2 * self.t)

    def reads(self) -> list[Region]:
        out = [self._x_read]
        if self._l_row is not None:
            out.append(self._l_row)
        return out

    def writes(self) -> list[Region]:
        return [self._x_write]

    def apply(self, m: TwoLevelMachine) -> None:
        if not self.t:
            return  # row 0 is already final (unit diagonal)
        xw = m.workspace(self.x)
        lw = m.workspace(self.l)
        it = int(self.Irows[self.t])
        prev = self.Irows[: self.t]
        lrow = lw[it, prev]
        xw[it, self.J] = xw[it, self.J] - lrow @ xw[np.ix_(prev, self.J)]


class LuFactorResident(ComputeOp):
    """In-place LU (no pivoting) of the fully resident square tile ``A[R, R]``.

    Zero I/O, like :class:`CholFactorResident`; the tile afterwards holds
    ``L`` strictly below the diagonal (unit diagonal implicit) and ``U`` on
    and above it.
    """

    name = "lu_factor_resident"

    def __init__(self, m: TwoLevelMachine, a: str, R):
        from ..kernels.flops import lu_flops, lu_mults

        self.a = a
        self.R = _frozen(np.sort(as_index_array(R)))
        self._region = m.tile(a, self.R, self.R)
        n = self.R.size
        self.mults = lu_mults(n)
        self.flops = lu_flops(n)

    def reads(self) -> list[Region]:
        return [self._region]

    def writes(self) -> list[Region]:
        return [self._region]

    def apply(self, m: TwoLevelMachine) -> None:
        from ..kernels.reference import lu_nopivot_in_place

        aw = m.workspace(self.a)
        ix = np.ix_(self.R, self.R)
        tile = aw[ix].copy()
        lu_nopivot_in_place(tile)
        aw[ix] = tile


class TriangleCrossUpdate(ComputeOp):
    """Triangle-block SYR2K update over a row set ``R``.

    ``C[r, r'] += sign * (A[r, k] B[r', k] + B[r, k] A[r', k])`` for pairs
    ``r > r'`` of ``R`` (with ``r = r'`` included on diagonal tiles, where
    the update degenerates to ``2 A[r,k] B[r,k]``).  This is the SYR2K
    analogue of :class:`TriangleUpdate` — the extension the paper's
    conclusion gestures at ("other kernels which use the same input several
    times"): one load of ``A[R,k]`` and ``B[R,k]`` feeds ``|R|(|R|-1)/2``
    two-multiply updates.

    Work convention: 2 multiplies / 4 flops per pair (two multiply-adds).
    """

    name = "triangle_cross_update"

    def __init__(self, m: TwoLevelMachine, c: str, a: str, b: str, R, k: int, sign: float = 1.0, include_diagonal: bool = False):
        self.c, self.a, self.b = c, a, b
        self.R = _frozen(np.sort(as_index_array(R)))
        self.k = int(k)
        self.sign = float(sign)
        self.include_diagonal = bool(include_diagonal)
        il, jl = tril_pairs(self.R.size, 0 if include_diagonal else -1)
        self._il, self._jl = il, jl
        self._c_region = m.lower_tile(c, self.R, strict=not include_diagonal)
        self._target_flat = self._c_region.flat  # as in TriangleUpdate
        self._a_region = m.column_segment(a, self.R, self.k)
        self._b_region = m.column_segment(b, self.R, self.k)
        self.mults = 2 * int(il.size)
        self.flops = 2 * self.mults

    def reads(self) -> list[Region]:
        return [self._a_region, self._b_region, self._c_region]

    def writes(self) -> list[Region]:
        return [self._c_region]

    def apply(self, m: TwoLevelMachine) -> None:
        cw = m.workspace(self.c)
        aw = m.workspace(self.a)
        bw = m.workspace(self.b)
        u = aw[self.R, self.k]
        v = bw[self.R, self.k]
        contrib = self.sign * (u[self._il] * v[self._jl] + v[self._il] * u[self._jl])
        cw.ravel()[self._target_flat] += contrib
