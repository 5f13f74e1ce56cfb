"""Read and rewrite the columns of a schedule container, for the tests that
tamper with them: the rewrite runs none of the load checks, so the next
``load_schedule`` sees exactly the tampered columns."""

from __future__ import annotations

import json

import numpy as np

from repro.trace.io import _OP_BY_NAME, _OP_SPECS


def read_columns(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The container's JSON header and writable copies of its arrays."""
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(str(npz["header"][()]))
        arrays = {name: npz[name].copy() for name in npz.files if name != "header"}
    return header, arrays


def write_columns(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    np.savez_compressed(path, header=np.asarray(json.dumps(header)), **arrays)


def step_spans(header: dict, arrays: dict[str, np.ndarray]) -> list[list[tuple[int, int]]]:
    """Per step, the ``(start, end)`` in ``index_data`` of each of its index
    arrays: one for a load or evict, one per index field for a compute."""
    n_fields = [len(_OP_SPECS[_OP_BY_NAME[op]][1]) for op in header["ops"]]
    lengths = arrays["lengths"].tolist()
    ends = np.cumsum(arrays["lengths"]).tolist()
    out, slot = [], 0
    for kind, ref in zip(arrays["kind"].tolist(), arrays["ref"].tolist()):
        arity = n_fields[ref] if kind == 2 else 1
        out.append([(ends[s] - lengths[s], ends[s]) for s in range(slot, slot + arity)])
        slot += arity
    return out
