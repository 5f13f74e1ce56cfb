"""On-disk formats for compiled traces and recorded schedules.

Both containers are a single ``.npz`` file (numpy's zip format, compressed)
holding the payload arrays plus one ``header`` entry — a JSON string with
the kind tag, the format version and the matrix names and shapes.  The
split keeps the bulk data binary and compact while the metadata stays
greppable: :func:`read_header` reads it without the arrays (``python -m
repro trace info``).  Each kind has its own format version
(:data:`FORMAT_VERSIONS`); a container in another version raises
:class:`~repro.errors.StaleFormatError`, and no reader for an older
version is kept.

Two kinds:

``trace`` (version 1)
    the arrays of a :class:`~repro.trace.compiled.CompiledTrace`.  Enough
    to replay (LRU/Belady at any capacity) and to re-derive every count,
    but op objects are gone — ``ops`` is ``None`` after loading.
``schedule`` (version 3)
    a full :class:`~repro.sched.schedule.Schedule` as the integer columns
    of :mod:`repro.sched.columns`, which owns the layout (the column
    dtypes, the kind codes and :data:`~repro.sched.columns.OP_SPECS`):
    ``kind``, ``ref`` and ``writeback`` per step, ``lengths`` per index
    array, the arrays back to back in ``index_data``, and one table
    ``params_<t>`` per op type present.  The header adds the matrix names
    and shapes, the op-type names that the ids index, and ``key``: the
    serve store's key the schedule was filed under
    (:meth:`~repro.serve.store.ScheduleKey.as_dict`), or ``null`` for a
    file saved outside a store.  ``load_schedule(path, key)`` refuses a
    container whose header names another key.

Saving writes a schedule's columns as they are: the rewriter's and the
loader's schedules carry them, and only a recorded or hand-built
schedule derives them from its steps
(:meth:`~repro.sched.columns.ScheduleColumns.from_steps`).

Loading a schedule checks the columns in a fixed number of numpy passes
per op type: every step kind, matrix and op type is known; the lengths
are non-negative and sum to the size of ``index_data``, which holds no
negative index; every load or evict flat lies below its matrix's
``rows * cols``; and every op index array is duplicate-free and, like
every integer scalar, lies below the rows or columns of each matrix it
indexes, as ``OP_SPECS`` declares (a solve step's ``t`` lies below its
array's length).  A container that fails raises
:class:`~repro.errors.ConfigurationError`, so the serve store reads it as
a corrupt miss.  A container that loads builds every one of its steps.

It builds them only when asked.  The loaded schedule carries its checked
columns: it answers ``len()``, ``counts()`` and ``io_volume()`` from
them, the certifier and a re-save read them, and it builds its
``steps``, and with them its compute ops, once, on first access; the
serve path reads nothing else, so a disk hit builds no op.  Load and
evict regions are read-only views of ``index_data``.  Ops are rebuilt
against the recorded shapes, through the process-wide region table of
:mod:`repro.machine.regions`, so each distinct region is built once and
shared, read-only, by every op, every load and every schedule in the
process that holds it.  A built schedule replays to bit-identical
numerics, so recorded runs can be shipped to workers or cached between
sweeps.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
import zlib
from typing import IO, Any

import numpy as np

from ..errors import ConfigurationError, StaleFormatError
from ..sched.columns import (
    COLUMNS,
    COMPUTE,
    EVICT,
    LOAD,
    OP_BY_NAME,
    OP_SPECS,
    ScheduleColumns,
    build_steps,
    gather,
)
from ..sched.schedule import Schedule
from .compiled import CompiledTrace

#: The format version each container kind is written in and read at.
FORMAT_VERSIONS = {"trace": 1, "schedule": 3}


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


def _header(npz, path) -> dict:
    try:
        header = json.loads(str(npz["header"][()]))
    except KeyError:
        raise ConfigurationError(f"{path}: not a repro container (no header)") from None
    if not isinstance(header, dict):
        raise ConfigurationError(f"{path}: not a repro container (header {header!r})")
    return header


def _read_npz(
    path: str | os.PathLike | IO[bytes], kind: str
) -> tuple[dict, dict[str, Any]]:
    with np.load(path, allow_pickle=False) as npz:
        header = _header(npz, path)
        if header.get("kind") != kind:
            raise ConfigurationError(
                f"{path}: expected a {kind!r} file, found {header.get('kind')!r}"
            )
        if header.get("version") != FORMAT_VERSIONS[kind]:
            raise StaleFormatError(
                f"{path}: {kind} format version {header.get('version')!r}; "
                f"this build reads version {FORMAT_VERSIONS[kind]}"
            )
        # Materialize before the file closes (NpzFile reads lazily).
        arrays = {name: npz[name] for name in npz.files if name != "header"}
    return header, arrays


def read_header(path: str | os.PathLike) -> dict:
    """The JSON header of the container at ``path`` as written (kind and
    version unchecked), read without its arrays.  Raises
    :class:`~repro.errors.ConfigurationError` naming ``path`` and the
    reason when ``path`` cannot be opened or holds no repro container."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            return _header(npz, path)
    except ConfigurationError:
        raise
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from None
    # numpy's, zipfile's and zlib's errors for an empty, text, .npy or torn file
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigurationError(f"{path}: not a repro container") from exc


# ---------------------------------------------------------------------- #
# compiled traces
# ---------------------------------------------------------------------- #
def save_trace(trace: CompiledTrace, path: str | os.PathLike | IO[bytes]) -> None:
    """Write a compiled trace as a compact ``.npz`` + JSON-header container."""
    header = {
        "kind": "trace",
        "version": FORMAT_VERSIONS["trace"],
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
def save_schedule(
    schedule: Schedule, path: str | os.PathLike | IO[bytes], key: dict | None = None
) -> None:
    """Write a full schedule (loads, evicts, reconstructible compute ops)
    as the integer columns of schedule format version 3, with ``key`` (a
    serve store key's ``as_dict()``, or ``None``) in the header.

    A schedule that carries columns (rewritten or loaded) is written as
    it is; any other derives them from its steps
    (:meth:`~repro.sched.columns.ScheduleColumns.from_steps`).
    """
    columns = schedule.columns
    if columns is None:
        columns = ScheduleColumns.from_steps(schedule.steps, schedule.shapes)
    if len(columns.names) > len(schedule.shapes):
        raise ConfigurationError(
            f"a step names matrix {columns.names[len(schedule.shapes)]!r}, "
            f"absent from the schedule's shapes"
        )
    for cls in columns.op_types:
        if cls not in OP_SPECS:
            raise ConfigurationError(f"cannot serialize compute op of type {cls.__name__}")
    header = {
        "kind": "schedule",
        "version": FORMAT_VERSIONS["schedule"],
        "key": key,
        "matrices": columns.names,
        "shapes": [[int(r), int(c)] for r, c in schedule.shapes.values()],
        "ops": [cls.name for cls in columns.op_types],
    }
    _write_npz(path, header, columns.arrays())


def _schedule_header(header: dict) -> tuple[list[str], np.ndarray, list[type]]:
    """The matrix names, their ``(rows, cols)`` as an array, and the op classes."""
    names, shapes, ops = header.get("matrices"), header.get("shapes"), header.get("ops")
    if not (
        isinstance(names, list)
        and all(isinstance(name, str) for name in names)
        and len(set(names)) == len(names)
    ):
        raise ConfigurationError(f"header matrices must be distinct names, found {names!r}")
    if not (
        isinstance(shapes, list)
        and len(shapes) == len(names)
        and all(
            isinstance(shape, list)
            and len(shape) == 2
            and all(type(v) is int and 0 <= v < 2**31 for v in shape)
            for shape in shapes
        )
    ):
        raise ConfigurationError(
            f"header shapes must be one [rows, cols] pair per matrix, found {shapes!r}"
        )
    if not (
        isinstance(ops, list)
        and all(isinstance(op, str) and op in OP_BY_NAME for op in ops)
        and len(set(ops)) == len(ops)
    ):
        raise ConfigurationError(f"header names unknown or repeated op types: {ops!r}")
    dims = np.array(shapes, dtype=np.int64).reshape(len(names), 2)
    return names, dims, [OP_BY_NAME[op] for op in ops]


def _repeats(values: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether a span of ``values`` (back-to-back spans of ``lengths``)
    holds some index twice: one sort of (span, index) keys."""
    span = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    keyed = np.sort(span * (int(values.max(initial=0)) + 1) + values)
    return bool((keyed[1:] == keyed[:-1]).any())


def _check_op_type(
    cls: type,
    table: np.ndarray,
    slots: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    data: np.ndarray,
    dims: np.ndarray,
) -> None:
    """Check every op of type ``cls`` against its :data:`OP_SPECS` bounds.

    ``table`` is the type's params table and ``slots`` the index of each
    op's first array in ``starts``/``lengths``.
    """
    matrices, fields, scalars = OP_SPECS[cls]
    if table.dtype != np.float64 or table.shape != (slots.size, len(matrices) + len(scalars)):
        raise ConfigurationError(
            f"{cls.name} params must be float64 of shape "
            f"{(slots.size, len(matrices) + len(scalars))}, found {table.dtype} {table.shape}"
        )
    kinds = [None] * len(matrices) + list(scalars.values())
    whole = [j for j, kind in enumerate(kinds) if kind is not float]
    if (table[:, whole] != np.floor(table[:, whole])).any():
        raise ConfigurationError(f"a {cls.name} matrix id or integer scalar is not whole")
    ids = table[:, : len(matrices)]
    if ((ids < 0) | (ids >= dims.shape[0])).any():
        raise ConfigurationError(f"a {cls.name} op names an unknown matrix")
    ids = ids.astype(np.int64)
    sizes = {f: lengths[slots + j] for j, f in enumerate(fields)}

    def limit(bounds: tuple[str, ...]) -> np.ndarray:
        """Per op, the least of ``bounds``."""
        values = []
        for bound in bounds:
            field, what = bound.split(".")
            if what == "size":
                values.append(sizes[field])
            else:
                axis = ("rows", "cols").index(what)
                values.append(dims[ids[:, matrices.index(field)], axis])
        return np.minimum.reduce(values)

    for j, (f, bounds) in enumerate(fields.items()):
        values = gather(data, starts[slots + j], sizes[f])
        if (values >= np.repeat(limit(bounds), sizes[f])).any():
            raise ConfigurationError(
                f"a {cls.name} {f} index lies outside a matrix it indexes"
            )
        if _repeats(values, sizes[f]):
            raise ConfigurationError(f"a {cls.name} {f} index set repeats an index")
    for j, (f, kind) in enumerate(scalars.items(), start=len(matrices)):
        if kind is float:
            continue
        column = table[:, j]
        if kind is bool:
            bad = (column != 0) & (column != 1)
        else:
            bad = (column < 0) | (column >= limit(kind))
        if bad.any():
            raise ConfigurationError(f"a {cls.name} {f} lies outside its range")


def load_schedule(path: str | os.PathLike | IO[bytes], key: dict | None = None) -> Schedule:
    """Load a schedule written by :func:`save_schedule`.

    Checks the container's columns (see the module docstring) and returns
    a schedule whose ``len()``, ``counts()`` and ``io_volume()`` come from
    them.  Its ``steps`` are built once, on first access, as real op
    objects against the recorded shapes
    (:class:`~repro.machine.regions.MatrixShapes`), so the schedule can be
    replayed (:func:`~repro.sched.schedule.replay_schedule`) on any machine
    with matching shapes and reproduces the original numerics bit for bit.
    A container that fails a check raises
    :class:`~repro.errors.ConfigurationError`, and one written in another
    format version raises :class:`~repro.errors.StaleFormatError`.  Given
    a ``key``, a container whose header names another key raises
    :class:`~repro.errors.ConfigurationError` too, after the version check.
    """
    header, arrays = _read_npz(path, "schedule")
    if key is not None and header.get("key") != key:
        raise ConfigurationError(f"{path}: holds key {header.get('key')!r}, not {key!r}")
    names, dims, op_classes = _schedule_header(header)
    tables = [f"params_{t}" for t in range(len(op_classes))]
    if sorted(arrays) != sorted([*COLUMNS, *tables]):
        raise ConfigurationError(
            f"container members {sorted(arrays)} are not the columns its header names"
        )
    for name, dtype in COLUMNS.items():
        if arrays[name].dtype != dtype or arrays[name].ndim != 1:
            raise ConfigurationError(
                f"{name} must be 1-D {np.dtype(dtype)}, found "
                f"{arrays[name].dtype} {arrays[name].shape}"
            )
    kind, ref, writeback, lengths, data = (arrays[name] for name in COLUMNS)
    if not kind.size == ref.size == writeback.size:
        raise ConfigurationError("the kind, ref and writeback columns differ in length")
    if ((kind < LOAD) | (kind > COMPUTE)).any():
        raise ConfigurationError("a step has an unknown kind")
    compute = kind == COMPUTE
    if ((ref < 0) | (ref >= np.where(compute, len(op_classes), len(names)))).any():
        raise ConfigurationError("a step names an unknown matrix or op type")
    if (writeback & (kind != EVICT)).any():
        raise ConfigurationError("a step that is not an evict carries a writeback flag")
    arity = np.ones(kind.size, dtype=np.int64)
    n_fields = np.array([len(OP_SPECS[cls][1]) for cls in op_classes], dtype=np.int64)
    arity[compute] = n_fields[ref[compute]]
    slot = np.cumsum(arity) - arity  # each step's first index array
    if int(arity.sum()) != lengths.size:
        raise ConfigurationError(
            f"lengths holds {lengths.size} entries for {int(arity.sum())} index arrays"
        )
    if lengths.size and (lengths.min() < 0 or lengths.max() > data.size) or (
        int(lengths.sum()) != data.size
    ):
        raise ConfigurationError(
            f"the index spans do not tile index_data ({data.size} entries)"
        )
    if data.size and data.min() < 0:
        raise ConfigurationError("index_data holds a negative index")
    starts = np.cumsum(lengths) - lengths
    move = np.flatnonzero(~compute)
    move_lengths = lengths[slot[move]]
    flats = gather(data, starts[slot[move]], move_lengths)
    limits = dims[ref[move], 0] * dims[ref[move], 1]
    if (flats >= np.repeat(limits, move_lengths)).any():
        raise ConfigurationError("a load/evict flat index lies outside its matrix")
    op_slots = [slot[compute & (ref == t)] for t in range(len(op_classes))]
    for cls, table, slots in zip(op_classes, tables, op_slots):
        _check_op_type(cls, arrays[table], slots, starts, lengths, data, dims)

    data.setflags(write=False)
    columns = ScheduleColumns(
        shapes={name: (r, c) for name, (r, c) in zip(names, dims.tolist())},
        names=names,
        op_types=op_classes,
        kind=kind,
        ref=ref,
        writeback=writeback,
        lengths=lengths,
        index_data=data,
        params=[arrays[name] for name in tables],
        slots=slot,
        starts=starts,
    )
    return Schedule.deferred(columns, lambda: build_steps(columns))
