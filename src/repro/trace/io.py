"""On-disk formats for compiled traces and recorded schedules.

Both containers are a single ``.npz`` file (numpy's zip format, compressed)
holding the payload arrays plus one ``header`` entry — a JSON string with
the kind tag, format version, matrix names/shapes and, for schedules, the
structural step records.  The split keeps the bulk data binary and compact
while the metadata stays greppable (``python -m repro trace info``).

Two kinds:

``trace``
    the arrays of a :class:`~repro.trace.compiled.CompiledTrace`.  Enough
    to replay (LRU/Belady at any capacity) and to re-derive every count,
    but op objects are gone — ``ops`` is ``None`` after loading.
``schedule``
    a full :class:`~repro.sched.schedule.Schedule`: every load/evict step
    with its region, every compute step as the op class name plus its
    constructor parameters (index arrays packed into one shared int64
    payload).  Loading first checks that every record points inside that
    payload and inside its matrix, then rebuilds every compute op eagerly
    against the recorded shapes: the op constructors see only matrix
    column counts and region constructors.  Those constructors are the
    process-wide region table of :mod:`repro.machine.regions`, so each
    distinct region is checked and built once — not once per op that
    names it — and shared, read-only, by every op, every load and every
    schedule in the process that holds it.  An op whose index set repeats
    an index raises :class:`~repro.errors.ConfigurationError`, so the
    serve store reads such a container as corrupt.  A loaded schedule
    replays to bit-identical numerics, so recorded runs can be shipped to
    workers or cached between sweeps.
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Any

import numpy as np

from ..errors import ConfigurationError
from ..machine.regions import MatrixShapes, Region
from ..sched.ops import (
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
from ..sched.schedule import ComputeStep, EvictStep, LoadStep, Schedule, Step
from .compiled import CompiledTrace

FORMAT_VERSION = 1

#: op class -> (string fields, index-array fields, scalar fields).  Scalar
#: fields round-trip through JSON (ints, floats, bools); index arrays are
#: packed into the shared ``index_data`` payload.  Field names equal both
#: the attribute and the constructor-keyword names.
_OP_SPECS: dict[type, tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    OuterColsUpdate: (("c", "a", "b"), ("I", "J"), ("ka", "kb", "sign")),
    TriangleUpdate: (("c", "a"), ("R",), ("k", "sign", "include_diagonal")),
    TriangleCrossUpdate: (("c", "a", "b"), ("R",), ("k", "sign", "include_diagonal")),
    GemmOuterUpdate: (("c", "a", "b"), ("I", "J"), ("k", "sign")),
    TrsmSolveStep: (("x", "l"), ("I", "Jcols"), ("t",)),
    UpperSolveStep: (("x", "u"), ("I", "Jcols"), ("t",)),
    UnitLowerSolveStep: (("x", "l"), ("Irows", "J"), ("t",)),
    CholFactorResident: (("a",), ("R",), ()),
    LuFactorResident: (("a",), ("R",), ()),
}
_OP_BY_NAME = {cls.name: cls for cls in _OP_SPECS}


def _write_npz(path: str | os.PathLike | IO[bytes], header: dict, arrays: dict) -> None:
    payload = dict(header=np.asarray(json.dumps(header)), **arrays)
    if not isinstance(path, (str, os.PathLike)):
        np.savez_compressed(path, **payload)
        return
    # Atomic for real paths: write a sibling temp file, then os.replace —
    # an interrupted save can never leave a torn container at the
    # destination (the serve store's whole consistency story rests on it).
    # numpy appends ".npz" to extension-less names; normalize the
    # destination the same way so the rename lands where savez would have.
    dest = os.fspath(path)
    if not dest.endswith(".npz"):
        dest += ".npz"
    tmp = f"{dest}.{os.getpid()}.{threading.get_ident()}.tmp.npz"
    try:
        np.savez_compressed(tmp, **payload)
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_npz(
    path: str | os.PathLike | IO[bytes], kind: str
) -> tuple[dict, dict[str, Any]]:
    with np.load(path, allow_pickle=False) as npz:
        try:
            header = json.loads(str(npz["header"][()]))
        except KeyError:
            raise ConfigurationError(
                f"{path}: not a repro {kind} file (no header)"
            ) from None
        if header.get("kind") != kind:
            raise ConfigurationError(
                f"{path}: expected a {kind!r} file, found {header.get('kind')!r}"
            )
        if header.get("version") != FORMAT_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported {kind} format version {header.get('version')!r}"
            )
        # Materialize before the file closes (NpzFile reads lazily).
        arrays = {name: npz[name] for name in npz.files if name != "header"}
    return header, arrays


def file_kind(path: str | os.PathLike) -> str:
    """The kind tag (``"trace"`` or ``"schedule"``) of an ``.npz`` container."""
    with np.load(path, allow_pickle=False) as npz:
        try:
            return json.loads(str(npz["header"][()])).get("kind", "?")
        except KeyError:
            raise ConfigurationError(
                f"{path}: not a repro trace/schedule file"
            ) from None


# ---------------------------------------------------------------------- #
# compiled traces
# ---------------------------------------------------------------------- #
def save_trace(trace: CompiledTrace, path: str | os.PathLike | IO[bytes]) -> None:
    """Write a compiled trace as a compact ``.npz`` + JSON-header container."""
    header = {
        "kind": "trace",
        "version": FORMAT_VERSION,
        "matrices": list(trace.matrices),
        "shapes": {name: list(shape) for name, shape in trace.shapes.items()},
        "n_accesses": trace.n_accesses,
        "n_ops": trace.n_ops,
        "n_elements": trace.n_elements,
    }
    _write_npz(
        path,
        header,
        dict(
            elem_ids=trace.elem_ids,
            is_write=np.packbits(trace.is_write),
            op_starts=trace.op_starts,
            op_read_ends=trace.op_read_ends,
            key_matrix=trace.key_matrix,
            key_flat=trace.key_flat,
        ),
    )


def load_trace(path: str | os.PathLike | IO[bytes]) -> CompiledTrace:
    """Load a trace written by :func:`save_trace` (``ops`` is ``None``)."""
    header, npz = _read_npz(path, "trace")
    n = int(header["n_accesses"])
    return CompiledTrace(
        matrices=tuple(header["matrices"]),
        shapes={name: (int(r), int(c)) for name, (r, c) in header["shapes"].items()},
        elem_ids=npz["elem_ids"],
        is_write=np.unpackbits(npz["is_write"], count=n).astype(bool),
        op_starts=npz["op_starts"],
        op_read_ends=npz["op_read_ends"],
        key_matrix=npz["key_matrix"],
        key_flat=npz["key_flat"],
        ops=None,
    )


# ---------------------------------------------------------------------- #
# full schedules
# ---------------------------------------------------------------------- #
def _op_record(op: ComputeOp, chunks: list[np.ndarray], offset: int) -> tuple[dict, int]:
    spec = _OP_SPECS.get(type(op))
    if spec is None:
        raise ConfigurationError(
            f"cannot serialize compute op of type {type(op).__name__}"
        )
    strs, arrays, scalars = spec
    params: dict[str, Any] = {f: getattr(op, f) for f in strs}
    for f in scalars:
        value = getattr(op, f)
        params[f] = bool(value) if isinstance(value, bool) else value
    spans = {}
    for f in arrays:
        arr = np.asarray(getattr(op, f), dtype=np.int64).ravel()
        chunks.append(arr)
        spans[f] = [offset, offset + int(arr.size)]
        offset += int(arr.size)
    return {"t": "C", "op": type(op).name, "p": params, "i": spans}, offset


def save_schedule(schedule: Schedule, path: str | os.PathLike | IO[bytes]) -> None:
    """Write a full schedule (loads, evicts, reconstructible compute ops)."""
    chunks: list[np.ndarray] = []
    offset = 0
    steps: list[dict] = []
    for step in schedule.steps:
        if isinstance(step, (LoadStep, EvictStep)):
            flat = step.region.flat
            chunks.append(flat)
            rec: dict[str, Any] = {
                "t": "E" if isinstance(step, EvictStep) else "L",
                "m": step.region.matrix,
                "i": [offset, offset + int(flat.size)],
            }
            if isinstance(step, EvictStep):
                rec["wb"] = bool(step.writeback)
            offset += int(flat.size)
        elif isinstance(step, ComputeStep):
            rec, offset = _op_record(step.op, chunks, offset)
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unknown step type {type(step).__name__}")
        steps.append(rec)
    header = {
        "kind": "schedule",
        "version": FORMAT_VERSION,
        "shapes": {name: list(shape) for name, shape in schedule.shapes.items()},
        "steps": steps,
    }
    index_data = (
        np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    )
    _write_npz(path, header, dict(index_data=index_data))


def _check_spans(
    records: list[dict], shapes: dict[str, tuple[int, int]], index_data: np.ndarray
) -> None:
    """Reject a parseable container whose records point outside their data.

    Every span must lie within ``index_data``, which may hold no negative
    index; every load/evict must name a matrix of ``shapes`` and stay
    below its ``rows * cols`` elements.  The numpy work is a fixed number
    of calls per load, whatever the number of steps.
    """
    if index_data.dtype != np.int64 or index_data.ndim != 1:
        raise ConfigurationError(
            f"index_data must be 1-D int64, found {index_data.dtype} {index_data.shape}"
        )
    moves = [rec for rec in records if rec["t"] in ("L", "E")]
    names = [rec["m"] for rec in moves]
    sizes = {name: rows * cols for name, (rows, cols) in shapes.items()}
    unknown = set(names) - sizes.keys()
    if unknown:
        raise ConfigurationError(
            f"load/evict records name matrices absent from shapes: {sorted(unknown)}"
        )
    limits = np.array([sizes[name] for name in names], dtype=np.int64)
    spans = [rec["i"] for rec in moves]
    spans += [span for rec in records if rec["t"] == "C" for span in rec["i"].values()]
    spans = np.array(spans, dtype=np.int64).reshape(-1, 2)
    starts, ends = spans[:, 0], spans[:, 1]
    if spans.size and (
        starts.min() < 0 or (ends < starts).any() or ends.max() > index_data.size
    ):
        raise ConfigurationError(
            f"an index span runs outside index_data ({index_data.size} entries)"
        )
    if index_data.size and index_data.min() < 0:
        raise ConfigurationError("index_data holds a negative index")
    # Gather every load/evict flat beside its matrix's element count.
    starts, lengths = starts[: len(moves)], (ends - starts)[: len(moves)]
    offsets = np.cumsum(lengths) - lengths
    at = np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths)
    if (index_data[at] >= np.repeat(limits, lengths)).any():
        raise ConfigurationError("a load/evict flat index lies outside its matrix")


def load_schedule(path: str | os.PathLike | IO[bytes]) -> Schedule:
    """Load a schedule written by :func:`save_schedule`.

    Every compute op is rebuilt eagerly, as a real op object, against the
    recorded shapes (:class:`~repro.machine.regions.MatrixShapes`), so the
    loaded schedule can be replayed
    (:func:`~repro.sched.schedule.replay_schedule`) on any machine with
    matching shapes and reproduces the original numerics bit for bit.  Ops
    build their regions through the process-wide region table and share
    them, the index payload and the derived index arrays, all read-only.
    A container whose records point outside the payload or outside their
    matrix, or whose op indices repeat, raises
    :class:`~repro.errors.ConfigurationError`.
    """
    header, npz = _read_npz(path, "schedule")
    shapes = {name: (int(r), int(c)) for name, (r, c) in header["shapes"].items()}
    records = header["steps"]
    index_data = npz["index_data"]
    _check_spans(records, shapes, index_data)
    index_data.setflags(write=False)
    m = MatrixShapes(shapes)
    steps: list[Step] = []
    for rec in records:
        kind = rec["t"]
        if kind in ("L", "E"):
            start, end = rec["i"]
            region = Region(rec["m"], index_data[start:end])
            if kind == "L":
                steps.append(LoadStep(region))
            else:
                steps.append(EvictStep(region, writeback=bool(rec["wb"])))
        elif kind == "C":
            cls = _OP_BY_NAME.get(rec["op"])
            if cls is None:
                raise ConfigurationError(f"unknown compute op {rec['op']!r}")
            params = dict(rec["p"])
            for f, (start, end) in rec["i"].items():
                params[f] = index_data[start:end]
            steps.append(ComputeStep(cls(m, **params)))
        else:
            raise ConfigurationError(f"unknown step record {kind!r}")
    return Schedule(steps=steps, shapes=shapes)
