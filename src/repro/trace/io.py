"""On-disk formats for compiled traces and recorded schedules.

Both container kinds share one encoding: a single gzip stream whose
content is one line of JSON, the *header*, then the raw bytes of the
container's arrays, back to back.  The header holds the kind tag, the
format version, the kind's metadata and ``sizes``: each array's length
(its row count, for a params table).  Nothing typed comes from the file.
Each kind fixes its arrays' dtypes (little-endian) and row widths, and a
reader checks that the sizes tile the body exactly, so no dtype, shape
or pickle is read from disk.  The arrays sit largest item size first,
after a header line padded to a multiple of eight bytes, so each one is
read in place, aligned and read-only.  ``zcat FILE | head -1`` prints
the header.

The stream is deflated at level 3, since every cold miss saves one and
a disk hit pays little for it: on the seven servebench
``cold-heuristic`` objects level 3 deflates in 4.9 ms against level 6's
16.6 ms, for 8.6% more bytes (114,321 against 105,312) and an inflate
about 4% slower (0.98 against 0.95 ms).  Levels 2, 4 and 5 each inflate
slower than level 3.

Every read inflates and checks the whole stream: the fixed ten-byte gzip
header (no flags, no timestamp), the CRC-32 and length trailer, and that
the stream reaches its end with nothing after it.  A file that fails
raises :class:`~repro.errors.ConfigurationError`, so the serve store
reads a flipped byte, a truncation or appended bytes as a corrupt
object.  :func:`read_header` checks no less, so a torn object yields no
header and no key.  The stream carries no timestamp, so two saves of
one schedule write the same bytes.

Each kind has its own format version (:data:`FORMAT_VERSIONS`); a
container in another version raises :class:`~repro.errors.StaleFormatError`,
and so does a file that starts with the zip signature: every container
of the retired formats (trace v1, schedule v1–v3) is a numpy ``.npz``
zip.  No reader for an older version is kept.

Two kinds:

``trace`` (version 2)
    the arrays of a :class:`~repro.trace.compiled.CompiledTrace`, with
    the write flags packed to bits.  Enough to replay (LRU/Belady at any
    capacity) and to re-derive every count, but op objects are gone —
    ``ops`` is ``None`` after loading.
``schedule`` (version 4)
    a full :class:`~repro.sched.schedule.Schedule` as the integer columns
    of :mod:`repro.sched.columns`, which owns the layout (the column
    dtypes, the kind codes and :data:`~repro.sched.columns.OP_SPECS`):
    ``kind``, ``ref`` and ``writeback`` per step, ``lengths`` per index
    array, the arrays back to back in ``index_data``, and one float64
    table ``params_<t>`` per op type present, one row per op, as wide as
    the type's matrix and scalar fields.  The header adds the matrix
    names and shapes, the op-type names that the ids index, and ``key``:
    the serve store's key the schedule was filed under
    (:meth:`~repro.serve.store.ScheduleKey.as_dict`), or ``null`` for a
    file saved outside a store.  ``load_schedule(path, key)`` refuses a
    container whose header names another key.

Saving to a path is atomic (:func:`~repro.utils.atomic.atomic_write_bytes`),
so an interrupted save leaves the destination as it was; a path without
the ``.npz`` suffix gets it, as numpy's savers named files.  A file
object is written in place.  Saving writes a schedule's columns as they
are: the rewriter's and the loader's schedules carry them, and only a
recorded or hand-built schedule derives them from its steps
(:meth:`~repro.sched.columns.ScheduleColumns.from_steps`).

Loading a schedule checks the columns in whole-container numpy passes:
every step kind, matrix and op type is known; the lengths are
non-negative and sum to the size of ``index_data``, which holds no
negative index; every index array is duplicate-free; every load or
evict flat lies below its matrix's ``rows * cols``; and every op index
array, like every integer scalar, lies below the rows or columns of
each matrix it indexes, as ``OP_SPECS`` declares (a solve step's ``t``
lies below its array's length).  Each op type's params checks write its
index arrays' bounds into one limit per array, so one comparison bounds
all of ``index_data`` and one sort of (array, index) keys over all of it
finds any repeat.  A container that fails raises
:class:`~repro.errors.ConfigurationError` (naming the op type and field
of an index out of bounds or repeated, or the load or evict span), so
the serve store reads it as a corrupt miss.  A container that loads
builds every one of its steps.

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

import functools
import json
import math
import os
import struct
import zlib
from typing import IO

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
)
from ..sched.schedule import Schedule
from ..utils.atomic import atomic_write_bytes
from .compiled import CompiledTrace

#: The format version each container kind is written in and read at.
FORMAT_VERSIONS = {"trace": 2, "schedule": 4}

#: A container's first ten bytes: a gzip member with no flags, no
#: timestamp and an unknown OS, so equal contents give equal bytes.
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
#: The first bytes of every container of a retired format (a numpy zip).
_ZIP_SIGNATURE = b"PK\x03\x04"

#: name -> (dtype, row shape): ``()`` for a column, ``(width,)`` for a table.
Layout = dict[str, tuple[type, tuple[int, ...]]]

#: The trace container's arrays (``is_write`` packed to bits).
_TRACE_LAYOUT: Layout = {
    "elem_ids": (np.int64, ()),
    "is_write": (np.uint8, ()),
    "op_starts": (np.int64, ()),
    "op_read_ends": (np.int64, ()),
    "key_matrix": (np.int32, ()),
    "key_flat": (np.int64, ()),
}


def _body_order(layout: Layout) -> list[str]:
    """The order the arrays sit in the body: largest item size first."""
    return sorted(layout, key=lambda name: -np.dtype(layout[name][0]).itemsize)


def _encode(header: dict, arrays: dict[str, np.ndarray], layout: Layout) -> bytes:
    """One container: ``header`` plus the arrays' ``sizes``, then the arrays."""
    raw = {
        name: np.ascontiguousarray(arrays[name], np.dtype(layout[name][0]).newbyteorder("<"))
        for name in _body_order(layout)
    }
    line = json.dumps(dict(header, sizes={name: len(a) for name, a in raw.items()}))
    line += " " * (-(len(line) + 1) % 8) + "\n"  # the arrays start aligned
    body = b"".join([line.encode(), *(a.tobytes() for a in raw.values())])
    deflate = zlib.compressobj(3, zlib.DEFLATED, -zlib.MAX_WBITS)  # raw deflate, level 3
    trailer = struct.pack("<II", zlib.crc32(body), len(body) & 0xFFFFFFFF)
    return b"".join([_GZIP_HEADER, deflate.compress(body), deflate.flush(), trailer])


def _write(
    path: str | os.PathLike | IO[bytes], header: dict, arrays: dict, layout: Layout
) -> None:
    data = _encode(header, arrays, layout)
    if not isinstance(path, (str, os.PathLike)):
        path.write(data)
        return
    dest = os.fspath(path)
    if not dest.endswith(".npz"):
        dest += ".npz"  # the name numpy's savers gave, kept for every path
    atomic_write_bytes(dest, data)


def _decode(path: str | os.PathLike | IO[bytes]) -> tuple[dict, memoryview]:
    """The header and the array bytes of the container at ``path``, after
    the whole stream is checked."""
    if isinstance(path, (str, os.PathLike)):
        with open(path, "rb") as fh:
            raw = fh.read()
    else:
        raw = path.read()
    if raw.startswith(_ZIP_SIGNATURE):
        raise StaleFormatError(f"{path}: a zip container, written in a retired format")
    if not raw.startswith(_GZIP_HEADER):
        raise ConfigurationError(f"{path}: not a repro container")
    inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)  # gzip: checks CRC and length
    try:
        body = inflate.decompress(raw)
    except zlib.error as exc:
        raise ConfigurationError(f"{path}: corrupt container ({exc})") from None
    if not inflate.eof:
        raise ConfigurationError(f"{path}: corrupt container (truncated)")
    if inflate.unused_data:
        raise ConfigurationError(
            f"{path}: corrupt container ({len(inflate.unused_data)} bytes after its end)"
        )
    end = body.find(b"\n")
    try:
        header = json.loads(body[:end]) if end >= 0 else None
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise ConfigurationError(f"{path}: not a repro container (no header)")
    return header, memoryview(body)[end + 1 :]


def _read(path: str | os.PathLike | IO[bytes], kind: str) -> tuple[dict, memoryview]:
    header, body = _decode(path)
    if header.get("kind") != kind:
        raise ConfigurationError(
            f"{path}: expected a {kind!r} file, found {header.get('kind')!r}"
        )
    if header.get("version") != FORMAT_VERSIONS[kind]:
        raise StaleFormatError(
            f"{path}: {kind} format version {header.get('version')!r}; "
            f"this build reads version {FORMAT_VERSIONS[kind]}"
        )
    return header, body


def _arrays(header: dict, body: memoryview, layout: Layout) -> dict[str, np.ndarray]:
    """The arrays ``layout`` names, read in place from ``body`` at the
    header's ``sizes``, which must name exactly them and tile the body."""
    sizes = header.get("sizes")
    if not (isinstance(sizes, dict) and sorted(sizes) == sorted(layout)):
        names = sorted(sizes) if isinstance(sizes, dict) else sizes
        raise ConfigurationError(
            f"container members {names!r} are not the arrays its header names "
            f"{sorted(layout)}"
        )
    arrays, offset = {}, 0
    for name in _body_order(layout):
        dtype, row = np.dtype(layout[name][0]).newbyteorder("<"), layout[name][1]
        size = sizes[name]
        if type(size) is not int or size < 0:
            raise ConfigurationError(f"{name} has size {size!r}")
        count = size * math.prod(row)
        if count * dtype.itemsize > len(body) - offset:
            raise ConfigurationError(f"{name} runs past the container's end")
        array = np.frombuffer(body, dtype, count, offset).reshape(size, *row)
        if dtype == np.bool_ and (array.view(np.uint8) > 1).any():
            raise ConfigurationError(f"{name} holds a byte other than 0 or 1")
        arrays[name] = array
        offset += count * dtype.itemsize
    if offset != len(body):
        raise ConfigurationError(
            f"the arrays fill {offset} of the container's {len(body)} bytes"
        )
    return arrays


def read_header(path: str | os.PathLike) -> dict:
    """The JSON header of the container at ``path`` as written (kind and
    version unchecked).  The whole stream is checked first, so a torn or
    tampered container has none: raises
    :class:`~repro.errors.ConfigurationError` naming ``path`` and the
    reason when ``path`` cannot be opened or holds no sound container,
    and :class:`~repro.errors.StaleFormatError` for a zip of a retired
    format."""
    try:
        return _decode(path)[0]
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------- #
# compiled traces
# ---------------------------------------------------------------------- #

def save_trace(trace: CompiledTrace, path: str | os.PathLike | IO[bytes]) -> None:
    """Write a compiled trace as a trace container (format version 2)."""
    header = {
        "kind": "trace",
        "version": FORMAT_VERSIONS["trace"],
        "matrices": list(trace.matrices),
        "shapes": {name: list(shape) for name, shape in trace.shapes.items()},
        "n_accesses": trace.n_accesses,
        "n_ops": trace.n_ops,
        "n_elements": trace.n_elements,
    }
    arrays = {name: getattr(trace, name) for name in _TRACE_LAYOUT}
    arrays["is_write"] = np.packbits(trace.is_write)
    _write(path, header, arrays, _TRACE_LAYOUT)


def load_trace(path: str | os.PathLike | IO[bytes]) -> CompiledTrace:
    """Load a trace written by :func:`save_trace` (``ops`` is ``None``)."""
    header, body = _read(path, "trace")
    arrays = _arrays(header, body, _TRACE_LAYOUT)
    n = int(header["n_accesses"])
    return CompiledTrace(
        matrices=tuple(header["matrices"]),
        shapes={name: (int(r), int(c)) for name, (r, c) in header["shapes"].items()},
        elem_ids=arrays["elem_ids"],
        is_write=np.unpackbits(arrays["is_write"], count=n).astype(bool),
        op_starts=arrays["op_starts"],
        op_read_ends=arrays["op_read_ends"],
        key_matrix=arrays["key_matrix"],
        key_flat=arrays["key_flat"],
        ops=None,
    )


# ---------------------------------------------------------------------- #
# full schedules
# ---------------------------------------------------------------------- #
def save_schedule(
    schedule: Schedule, path: str | os.PathLike | IO[bytes], key: dict | None = None
) -> None:
    """Write a full schedule (loads, evicts, reconstructible compute ops)
    as the integer columns of schedule format version 4, with ``key`` (a
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
    _write(path, header, columns.arrays(), _schedule_layout(columns.op_types))


def _schedule_layout(op_classes: list[type]) -> Layout:
    """The schedule container's arrays: the step columns, then one params
    table per op type, as wide as the type's matrix and scalar fields."""
    layout: Layout = {name: (dtype, ()) for name, dtype in COLUMNS.items()}
    for t, cls in enumerate(op_classes):
        matrices, _, scalars = OP_SPECS[cls]
        layout[f"params_{t}"] = (np.float64, (len(matrices) + len(scalars),))
    return layout


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


def _check_op_type(
    cls: type,
    table: np.ndarray,
    slots: np.ndarray,
    lengths: np.ndarray,
    dims: np.ndarray,
    limit: np.ndarray,
) -> None:
    """Check the params of every op of type ``cls`` against its
    :data:`OP_SPECS` bounds, and write the bound of each of its index
    arrays, the least of its field's bounds, into ``limit``.

    ``table`` is the type's params table, as wide as its fields, and
    ``slots`` the index of each op's first array in ``lengths`` and
    ``limit``.
    """
    matrices, fields, scalars = OP_SPECS[cls]
    if table.shape[0] != slots.size:
        raise ConfigurationError(
            f"{cls.name} params hold {table.shape[0]} rows for {slots.size} ops"
        )
    kinds = [None] * len(matrices) + list(scalars.values())
    whole = table[:, [j for j, kind in enumerate(kinds) if kind is not float]]
    if (whole != np.floor(whole)).any():
        raise ConfigurationError(f"a {cls.name} matrix id or integer scalar is not whole")
    ids = table[:, : len(matrices)]
    if ((ids < 0) | (ids >= dims.shape[0])).any():
        raise ConfigurationError(f"a {cls.name} op names an unknown matrix")
    ids = ids.astype(np.int64)
    names = list(fields)

    def least(bounds: tuple[str, ...]) -> np.ndarray:
        """Per op, the least of ``bounds``."""
        values = []
        for bound in bounds:
            field, what = bound.split(".")
            if what == "size":
                values.append(lengths[slots + names.index(field)])
            else:
                axis = ("rows", "cols").index(what)
                values.append(dims[ids[:, matrices.index(field)], axis])
        return functools.reduce(np.minimum, values)

    for j, bounds in enumerate(fields.values()):
        limit[slots + j] = least(bounds)
    for j, (f, kind) in enumerate(scalars.items(), start=len(matrices)):
        if kind is float:
            continue
        column = table[:, j]
        if kind is bool:
            bad = (column != 0) & (column != 1)
        else:
            bad = (column < 0) | (column >= least(kind))
        if bad.any():
            raise ConfigurationError(f"a {cls.name} {f} lies outside its range")


def _op_field(
    span: int, slot: np.ndarray, kind: np.ndarray, ref: np.ndarray, op_classes: list[type]
) -> str | None:
    """``"<op type> <field>"`` of the index array at ``span`` in
    ``lengths``, or ``None`` when it holds a load's or an evict's flats."""
    step = int(np.searchsorted(slot, span, side="right")) - 1
    if kind[step] != COMPUTE:
        return None
    cls = op_classes[ref[step]]
    return f"{cls.name} {list(OP_SPECS[cls][1])[span - slot[step]]}"


def _repeated_span(span: np.ndarray, data: np.ndarray, n_spans: int) -> int | None:
    """The first index array that repeats an index, or ``None``; ``span``
    names the array of each entry of ``data`` and is non-decreasing."""
    width = int(data.max(initial=0)) + 1
    if n_spans * width > np.iinfo(np.int64).max:  # (array, index) keys would overflow
        order = np.lexsort((data, span))
        span, data = span[order], data[order]
        hit = np.flatnonzero((span[1:] == span[:-1]) & (data[1:] == data[:-1]))
        return int(span[hit[0]]) if hit.size else None
    keyed = span * width + data
    # The keys arrive nearly sorted (spans in order, most index sets
    # sorted), which the stable sort's merge runs take in one pass.
    keyed.sort(kind="stable")
    hit = np.flatnonzero(keyed[1:] == keyed[:-1])
    return int(keyed[hit[0]] // width) if hit.size else None


def load_schedule(path: str | os.PathLike | IO[bytes], key: dict | None = None) -> Schedule:
    """Load a schedule written by :func:`save_schedule`.

    Checks the container's columns in whole-container passes (see the
    module docstring) and returns a schedule whose ``len()``, ``counts()``
    and ``io_volume()`` come from them.  Its ``steps`` are built once, on
    first access, as real op objects against the recorded shapes
    (:class:`~repro.machine.regions.MatrixShapes`), so the schedule can be
    replayed (:func:`~repro.sched.schedule.replay_schedule`) on any machine
    with matching shapes and reproduces the original numerics bit for bit.
    A container that fails a check raises
    :class:`~repro.errors.ConfigurationError`, and one written in another
    format version raises :class:`~repro.errors.StaleFormatError`.  Given
    a ``key``, a container whose header names another key raises
    :class:`~repro.errors.ConfigurationError` too, after the version check.
    """
    header, body = _read(path, "schedule")
    if key is not None and header.get("key") != key:
        raise ConfigurationError(f"{path}: holds key {header.get('key')!r}, not {key!r}")
    names, dims, op_classes = _schedule_header(header)
    tables = [f"params_{t}" for t in range(len(op_classes))]
    arrays = _arrays(header, body, _schedule_layout(op_classes))
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
    # Each index array's bound: its matrix's size for a load's or an
    # evict's flats, the least of its field's bounds for an op's.
    limit = np.empty(lengths.size, dtype=np.int64)
    limit[slot[~compute]] = (dims[:, 0] * dims[:, 1])[ref[~compute]]
    for t, cls in enumerate(op_classes):
        _check_op_type(cls, arrays[tables[t]], slot[compute & (ref == t)], lengths, dims, limit)
    span = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    outside = np.flatnonzero(data >= limit[span])
    if outside.size:
        field = _op_field(int(span[outside[0]]), slot, kind, ref, op_classes)
        if field is None:
            raise ConfigurationError("a load/evict flat index lies outside its matrix")
        raise ConfigurationError(f"a {field} index lies outside a matrix it indexes")
    repeated = _repeated_span(span, data, lengths.size)
    if repeated is not None:
        field = _op_field(repeated, slot, kind, ref, op_classes)
        if field is None:
            raise ConfigurationError("a load/evict span repeats a flat index")
        raise ConfigurationError(f"a {field} index set repeats an index")

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
