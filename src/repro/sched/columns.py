"""The column layout of a schedule: the one description every producer and
consumer of the schedule container imports.

A schedule as columns, in the layout of the ``schedule`` container of
:mod:`repro.trace.io` (format version 2).  Three columns hold one entry
per step, in step order: ``kind`` (:data:`LOAD`, :data:`EVICT` or
:data:`COMPUTE`), ``ref`` (a matrix id for a load or evict, an op-type id
for a compute) and ``writeback``.  ``lengths`` holds one length per index
array, in step order: a load or evict has one array, its region's flats,
and a compute has one per index-array field of its op type
(:data:`OP_SPECS`).  The arrays sit back to back in ``index_data``.  One
float64 ``params`` table per op type has a row per compute step of that
type: its matrix-name fields as matrix ids, then its scalar fields.
Matrix ids index the schedule's shapes, in order; op-type ids index
``op_types``.

:class:`ScheduleColumns` holds one schedule in this form.  Three producers
make one: the rewriter (:func:`repro.graph.rewriter.rewrite_trace`)
writes the columns as it decides each load and evict,
:func:`repro.trace.io.load_schedule` reads and checks them, and
:meth:`ScheduleColumns.from_steps` derives them from a recorded or
hand-built step list.  Three consumers read them:
:func:`repro.trace.io.save_schedule` writes them as they are,
:func:`repro.check.certify.certify_schedule` builds its load/evict events
from them, and :func:`build_steps` makes step objects from them when a
caller reads a schedule's ``steps``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import ScheduleError
from ..machine.regions import MatrixShapes, Region
from ..utils.intervals import span_indices
from .ops import (
    CholFactorResident,
    ComputeOp,
    GemmOuterUpdate,
    LuFactorResident,
    OuterColsUpdate,
    TriangleCrossUpdate,
    TriangleUpdate,
    TrsmSolveStep,
    UnitLowerSolveStep,
    UpperSolveStep,
)
from .schedule import ComputeStep, EvictStep, LoadStep, Step

#: Values of the ``kind`` column.
LOAD, EVICT, COMPUTE = 0, 1, 2
#: The step columns and their dtypes, in container order.
COLUMNS = {
    "kind": np.int8,
    "ref": np.int32,
    "writeback": np.bool_,
    "lengths": np.int64,
    "index_data": np.int64,
}

#: op class -> (matrix-name fields, index-array fields, scalar fields).
#: Field names equal both the attribute and the constructor-keyword names.
#: Each index array and integer scalar maps to the bounds it must stay
#: below: ``"<field>.rows"`` or ``"<field>.cols"`` of the matrix that
#: matrix-name field names, or ``"<field>.size"``, the length of that
#: index array.  Index arrays must also be duplicate-free.  ``float`` and
#: ``bool`` mark the other scalars.
OP_SPECS: dict[type, tuple[tuple[str, ...], dict[str, tuple[str, ...]], dict[str, Any]]] = {
    OuterColsUpdate: (
        ("c", "a", "b"),
        {"I": ("c.rows", "a.rows"), "J": ("c.cols", "b.rows")},
        {"ka": ("a.cols",), "kb": ("b.cols",), "sign": float},
    ),
    TriangleUpdate: (
        ("c", "a"),
        {"R": ("c.rows", "c.cols", "a.rows")},
        {"k": ("a.cols",), "sign": float, "include_diagonal": bool},
    ),
    TriangleCrossUpdate: (
        ("c", "a", "b"),
        {"R": ("c.rows", "c.cols", "a.rows", "b.rows")},
        {"k": ("a.cols", "b.cols"), "sign": float, "include_diagonal": bool},
    ),
    GemmOuterUpdate: (
        ("c", "a", "b"),
        {"I": ("c.rows", "a.rows"), "J": ("c.cols", "b.cols")},
        {"k": ("a.cols", "b.rows"), "sign": float},
    ),
    TrsmSolveStep: (
        ("x", "l"),
        {"I": ("x.rows",), "Jcols": ("x.cols", "l.rows", "l.cols")},
        {"t": ("Jcols.size",)},
    ),
    UpperSolveStep: (
        ("x", "u"),
        {"I": ("x.rows",), "Jcols": ("x.cols", "u.rows", "u.cols")},
        {"t": ("Jcols.size",)},
    ),
    UnitLowerSolveStep: (
        ("x", "l"),
        {"Irows": ("x.rows", "l.rows", "l.cols"), "J": ("x.cols",)},
        {"t": ("Irows.size",)},
    ),
    CholFactorResident: (("a",), {"R": ("a.rows", "a.cols")}, {}),
    LuFactorResident: (("a",), {"R": ("a.rows", "a.cols")}, {}),
}
OP_BY_NAME = {cls.name: cls for cls in OP_SPECS}


class MatrixIds(dict):
    """Matrix name -> id: the shapes' names in order, and a name absent
    from them gets the next id on first lookup."""

    def __init__(self, shapes: dict[str, tuple[int, int]]):
        super().__init__((name, i) for i, name in enumerate(shapes))

    def __missing__(self, name: str) -> int:
        self[name] = len(self)
        return self[name]


def gather(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The spans ``data[start:start + length]``, back to back."""
    return data[span_indices(starts, lengths)]


@dataclass(eq=False)
class ScheduleColumns:
    """One schedule as columns (module docstring).

    ``names`` lists the matrix names the ids index: the shapes' names,
    then any name a step used that the shapes lack (only a step list can
    hold one; the certifier reports it and the saver rejects it).
    ``slots`` holds each step's first index in ``lengths``, and ``starts``
    each index array's start in ``index_data``.  The compute ops come from
    the producer (``ops``) or are built once from the params tables, on
    first use.
    """

    shapes: dict[str, tuple[int, int]]
    names: list[str]
    op_types: list[type]
    kind: np.ndarray
    ref: np.ndarray
    writeback: np.ndarray
    lengths: np.ndarray
    index_data: np.ndarray
    params: list[np.ndarray]
    slots: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    ops: list[ComputeOp] | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __len__(self) -> int:
        return int(self.kind.size)

    @classmethod
    def assemble(
        cls,
        shapes: dict[str, tuple[int, int]],
        matrix_ids: MatrixIds,
        kind: np.ndarray,
        moves: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ops: list[ComputeOp],
    ) -> "ScheduleColumns":
        """The columns of ``kind`` (one entry per step), the load and evict
        steps' ``moves`` — their matrix ids, writeback flags and lengths,
        and their flats back to back — and the compute ``ops``, all in step
        order.

        The params tables and op index arrays are read field by field for
        each op type, and the index arrays of every step are scattered
        into ``index_data`` in step order.  An op of a type without a spec
        keeps no params and no index arrays.
        """
        move_ref, move_writeback, move_lengths, move_data = moves
        compute = kind == COMPUTE
        op_ids: dict[type, int] = {}
        op_type = np.fromiter(
            (op_ids.setdefault(type(op), len(op_ids)) for op in ops),
            dtype=COLUMNS["ref"], count=len(ops),
        )
        ref = np.empty(kind.size, dtype=COLUMNS["ref"])
        ref[~compute] = move_ref
        ref[compute] = op_type
        writeback = np.zeros(kind.size, dtype=COLUMNS["writeback"])
        writeback[~compute] = move_writeback
        specs = [OP_SPECS.get(op_cls, ((), {}, {})) for op_cls in op_ids]
        arity = np.ones(kind.size, dtype=np.int64)
        arity[compute] = np.array([len(spec[1]) for spec in specs], dtype=np.int64)[op_type]
        slots = np.cumsum(arity) - arity
        lengths = np.empty(int(arity.sum()), dtype=COLUMNS["lengths"])
        lengths[slots[~compute]] = move_lengths
        op_slots = slots[compute]
        # Each slot's block: 0 for the load/evict flats, else one block per
        # (op type, index field); a block's arrays are in slot order.
        block = np.zeros(lengths.size, dtype=np.int64)
        values = [move_data]
        params = []
        for t, (matrices, fields, scalars) in enumerate(specs):
            members = np.flatnonzero(op_type == t)
            typed = [ops[i] for i in members.tolist()]
            table = [
                np.fromiter(map(matrix_ids.__getitem__, map(attrgetter(f), typed)), np.float64, len(typed))
                for f in matrices
            ]
            table += [np.fromiter(map(attrgetter(f), typed), np.float64, len(typed)) for f in scalars]
            params.append(np.column_stack(table) if table else np.zeros((len(typed), 0)))
            for j, f in enumerate(fields):
                arrays = list(map(attrgetter(f), typed))
                at = op_slots[members] + j
                lengths[at] = np.fromiter(map(len, arrays), np.int64, len(arrays))
                block[at] = len(values)
                values.append(np.concatenate(arrays))
        data = np.empty(int(lengths.sum()), dtype=COLUMNS["index_data"])
        element_block = np.repeat(block, lengths)
        for b, block_values in enumerate(values):
            data[element_block == b] = block_values
        data.setflags(write=False)
        return cls(
            shapes=shapes,
            names=list(matrix_ids),
            op_types=list(op_ids),
            kind=kind,
            ref=ref,
            writeback=writeback,
            lengths=lengths,
            index_data=data,
            params=params,
            slots=slots,
            starts=np.cumsum(lengths) - lengths,
            ops=ops,
        )

    @classmethod
    def from_steps(
        cls, steps: Sequence[Step], shapes: dict[str, tuple[int, int]]
    ) -> "ScheduleColumns":
        """The columns of a recorded or hand-built step list.

        Raises :class:`~repro.errors.ScheduleError` on a step that is not
        a load, evict or compute.
        """
        matrix_ids = MatrixIds(shapes)
        kind: list[int] = []
        ref: list[int] = []
        writeback: list[bool] = []
        flats: list[np.ndarray] = []
        ops: list[ComputeOp] = []
        for pos, step in enumerate(steps):
            if isinstance(step, ComputeStep):
                kind.append(COMPUTE)
                ops.append(step.op)
            elif isinstance(step, (LoadStep, EvictStep)):
                evict = isinstance(step, EvictStep)
                kind.append(EVICT if evict else LOAD)
                ref.append(matrix_ids[step.region.matrix])
                writeback.append(evict and bool(step.writeback))
                flats.append(step.region.flat)
            else:
                raise ScheduleError(f"step {pos}: unknown step type {type(step).__name__}")
        moves = (
            np.asarray(ref, dtype=COLUMNS["ref"]),
            np.asarray(writeback, dtype=COLUMNS["writeback"]),
            np.fromiter(map(len, flats), np.int64, len(flats)),
            np.concatenate(flats) if flats else np.zeros(0, dtype=np.int64),
        )
        return cls.assemble(shapes, matrix_ids, np.asarray(kind, dtype=COLUMNS["kind"]), moves, ops)

    # -- what the columns answer without a step object ------------------- #
    def counts(self) -> dict[str, int]:
        """Step-type histogram, as :meth:`Schedule.counts` reports it."""
        load = int((self.kind == LOAD).sum())
        compute = int((self.kind == COMPUTE).sum())
        return {"load": load, "evict": len(self) - load - compute, "compute": compute}

    def io_volume(self) -> tuple[int, int]:
        """(loads, stores) in elements."""
        loads = self.lengths[self.slots[self.kind == LOAD]].sum()
        stores = self.lengths[self.slots[self.writeback]].sum()
        return int(loads), int(stores)

    def moves(self) -> tuple[np.ndarray, ...]:
        """The load and evict steps: their positions, matrix ids, load
        flags, writeback flags and lengths, and their flats back to back."""
        move = np.flatnonzero(self.kind != COMPUTE)
        slot = self.slots[move]
        lengths = self.lengths[slot]
        flats = gather(self.index_data, self.starts[slot], lengths)
        return move, self.ref[move], self.kind[move] == LOAD, self.writeback[move], lengths, flats

    def arrays(self) -> dict[str, np.ndarray]:
        """The container members: the step columns, then ``params_<t>``."""
        out = {name: getattr(self, name) for name in COLUMNS}
        out.update((f"params_{t}", table) for t, table in enumerate(self.params))
        return out

    # -- op objects ------------------------------------------------------ #
    def compute_ops(self) -> list[ComputeOp]:
        """The compute ops in step order, built once from the params
        tables when the producer did not hold them."""
        ops = self.ops
        if ops is None:
            with self._lock:
                if self.ops is None:
                    self.ops = self._build_ops()
                ops = self.ops
        return ops

    def _build_ops(self) -> list[ComputeOp]:
        """Ops against the shapes (:class:`MatrixShapes`) through the
        process-wide region table; their index arrays are read-only views
        of ``index_data``."""
        m = MatrixShapes(self.shapes)
        compute = np.flatnonzero(self.kind == COMPUTE)
        refs, slots = self.ref[compute], self.slots[compute]
        starts = self.starts.tolist()
        ends = (self.starts + self.lengths).tolist()
        data, names = self.index_data, self.names
        built = []
        for t, (cls, table) in enumerate(zip(self.op_types, self.params)):
            matrices, fields, scalars = OP_SPECS[cls]
            casts: list[Callable] = [c if c in (float, bool) else int for c in scalars.values()]
            ops = []
            for s, row in zip(slots[refs == t].tolist(), table.tolist()):
                params: dict[str, Any] = {f: names[int(v)] for f, v in zip(matrices, row)}
                params.update(zip(scalars, (cast(v) for cast, v in zip(casts, row[len(matrices):]))))
                params.update((f, data[starts[s + j]:ends[s + j]]) for j, f in enumerate(fields))
                ops.append(cls(m, **params))
            built.append(iter(ops))
        return [next(built[t]) for t in refs.tolist()]


def build_steps(columns: ScheduleColumns) -> list[Step]:
    """The step objects of ``columns``.

    Load and evict regions are read-only views of ``index_data``; compute
    steps hold the columns' ops (:meth:`ScheduleColumns.compute_ops`).
    """
    ops = iter(columns.compute_ops())
    names, data = columns.names, columns.index_data
    starts = columns.starts.tolist()
    ends = (columns.starts + columns.lengths).tolist()
    steps: list[Step] = []
    for k, r, wb, s in zip(
        columns.kind.tolist(), columns.ref.tolist(),
        columns.writeback.tolist(), columns.slots.tolist(),
    ):
        if k == COMPUTE:
            steps.append(ComputeStep(next(ops)))
        else:
            region = Region(names[r], data[starts[s]:ends[s]])
            steps.append(LoadStep(region) if k == LOAD else EvictStep(region, writeback=wb))
    return steps
