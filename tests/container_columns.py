"""Read and rewrite the columns of a schedule container, for the tests that
tamper with them: the rewrite runs none of the load checks, so the next
``load_schedule`` sees exactly the tampered columns.

The encoding is written out here a second time, from the format's
description in :mod:`repro.trace.io`: one gzip stream with a fixed
header, holding a JSON header line padded to a multiple of eight bytes,
then the arrays back to back, largest item size first.  A rewrite of an
untouched container is byte-identical to the saver's output (pinned by
``tests/test_serve.py``), so every tamper reaches the column checks.
:func:`write_zip` writes the numpy zip of the retired formats, and
:func:`torn_open` interrupts a save halfway through its write.
"""

from __future__ import annotations

import builtins
import json
import struct
import zlib

import numpy as np

from repro.sched.columns import COLUMNS, OP_BY_NAME, OP_SPECS

GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"


def decode(path) -> tuple[dict, bytes]:
    """The container's JSON header and the bytes after its line."""
    with open(path, "rb") as fh:
        body = zlib.decompress(fh.read(), wbits=31)
    end = body.index(b"\n")
    return json.loads(body[:end]), body[end + 1 :]


def read_columns(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The container's JSON header and writable copies of its arrays."""
    header, body = decode(path)
    dtypes, widths = dict(COLUMNS), {}
    for t, op in enumerate(header["ops"]):
        matrices, _, scalars = OP_SPECS[OP_BY_NAME[op]]
        dtypes[f"params_{t}"] = np.float64
        widths[f"params_{t}"] = len(matrices) + len(scalars)
    arrays, offset = {}, 0
    for name, size in header.pop("sizes").items():  # in body order
        count = size * widths.get(name, 1)
        arrays[name] = np.frombuffer(body, dtypes[name], count, offset).copy()
        if name in widths:
            arrays[name] = arrays[name].reshape(size, widths[name])
        offset += arrays[name].nbytes
    assert offset == len(body)
    return header, arrays


def write_columns(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    order = sorted(arrays, key=lambda name: -arrays[name].itemsize)
    line = json.dumps(dict(header, sizes={name: len(arrays[name]) for name in order}))
    line += " " * (-(len(line) + 1) % 8) + "\n"
    body = line.encode() + b"".join(np.ascontiguousarray(arrays[name]).tobytes() for name in order)
    deflate = zlib.compressobj(3, zlib.DEFLATED, -15)  # the saver's level
    with open(path, "wb") as fh:
        fh.write(GZIP_HEADER + deflate.compress(body) + deflate.flush()
                 + struct.pack("<II", zlib.crc32(body), len(body)))


def write_zip(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """A container of a retired format: a numpy zip with a header member."""
    np.savez_compressed(path, header=np.asarray(json.dumps(header)), **arrays)


def torn_open(file, mode="r", **kwargs):
    """``open`` for a write that is killed halfway through its bytes: patch
    it into :mod:`repro.utils.atomic` to interrupt a save mid-write."""
    real = builtins.open(file, mode, **kwargs)

    class Torn:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            real.close()

        def write(self, data):
            real.write(data[: len(data) // 2])
            raise KeyboardInterrupt  # the canonical mid-write kill

    return Torn()


def step_spans(header: dict, arrays: dict[str, np.ndarray]) -> list[list[tuple[int, int]]]:
    """Per step, the ``(start, end)`` in ``index_data`` of each of its index
    arrays: one for a load or evict, one per index field for a compute."""
    n_fields = [len(OP_SPECS[OP_BY_NAME[op]][1]) for op in header["ops"]]
    lengths = arrays["lengths"].tolist()
    ends = np.cumsum(arrays["lengths"]).tolist()
    out, slot = [], 0
    for kind, ref in zip(arrays["kind"].tolist(), arrays["ref"].tolist()):
        arity = n_fields[ref] if kind == 2 else 1
        out.append([(ends[s] - lengths[s], ends[s]) for s in range(slot, slot + arity)])
        slot += arity
    return out
