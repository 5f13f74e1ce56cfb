"""The compiled trace IR: element access streams as dense numpy arrays.

Every replay and graph analysis in this library walks the same
element-granular access stream of a compute-op sequence.  Materializing
one Python ``((matrix, flat), is_write)`` tuple per element touch caps
experiments at toy sizes; :class:`CompiledTrace` is the array form of
exactly that stream:

* ``(matrix, flat_index)`` keys are interned into dense int64 *element IDs*
  (``0 .. n_elements-1``), with decode tables ``key_matrix`` / ``key_flat``;
* the whole stream is three arrays — ``elem_ids``, ``is_write`` and the op
  boundary offsets ``op_starts`` (CSR style, ``n_ops + 1`` entries);
* ``op_read_ends[i]`` marks where op ``i``'s read-derived accesses end and
  its write-only extras begin (empty for every op in this library, where
  written regions are subsets of read regions — kept for generality).

The build is one Python pass and a fixed number of whole-stream numpy
passes.  The Python pass collects every op's read and write region
``.flat`` arrays (offset into a per-matrix global index space); one
``np.unique`` over all of them interns the elements; and membership of
each read in its own op's writes, and of each write in its own op's
reads, is one ``searchsorted`` of ``(op, element)`` keys against the
sorted write keys.  The access *order* is each op's read regions element
by element (flagged as writes where the element is also written), then
written elements not covered by any read region, in write order; the test
suite pins it to a tuple-per-touch traversal (``tests/replay_oracles.py``).

``next_use()`` / ``prev_access()`` give the vectorized position links that
the array-based replays (:mod:`repro.trace.replay`) and the Belady/MIN
floor are built on; :mod:`repro.trace.io` serializes the arrays to a
compact ``.npz`` container.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sched.ops import ComputeOp
from ..sched.schedule import ComputeStep, Schedule
from ..utils.intervals import span_indices


# eq=False: the array fields make a field-wise __eq__ ill-defined (numpy ==
# is elementwise); compare streams via the arrays.
@dataclass(eq=False)
class CompiledTrace:
    """An element-granular access stream compiled to dense numpy arrays.

    Attributes
    ----------
    matrices:
        Matrix names in interning order; ``key_matrix`` indexes into it.
    shapes:
        ``name -> (rows, cols)`` of the matrices the stream addresses
        (may be empty when compiled from a bare op list).
    elem_ids:
        int64 ``[n_accesses]`` — dense element ID of every touch, in
        stream order.
    is_write:
        bool ``[n_accesses]`` — whether the touch writes the element.
    op_starts:
        int64 ``[n_ops + 1]`` — op ``i`` owns accesses
        ``op_starts[i]:op_starts[i+1]``.
    op_read_ends:
        int64 ``[n_ops]`` — boundary between op ``i``'s read-derived
        accesses and its write-only extras.
    key_matrix / key_flat:
        decode tables: element ID ``e`` is element ``key_flat[e]`` of
        matrix ``matrices[key_matrix[e]]``.
    ops:
        the compute ops the trace was compiled from, when available
        (``None`` after :func:`~repro.trace.io.load_trace` — replays do
        not need them, DAG extraction does).
    """

    matrices: tuple[str, ...]
    shapes: dict[str, tuple[int, int]]
    elem_ids: np.ndarray
    is_write: np.ndarray
    op_starts: np.ndarray
    op_read_ends: np.ndarray
    key_matrix: np.ndarray
    key_flat: np.ndarray
    ops: list[ComputeOp] | None = field(default=None, repr=False)
    _next_use: np.ndarray | None = field(default=None, repr=False, compare=False)
    _prev_access: np.ndarray | None = field(default=None, repr=False, compare=False)
    #: memo for expensive capacity-independent replay artifacts (reuse
    #: distances, element-sorted permutations) keyed by artifact name.
    _replay_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def n_accesses(self) -> int:
        return int(self.elem_ids.size)

    @property
    def n_ops(self) -> int:
        return int(self.op_starts.size) - 1

    @property
    def n_elements(self) -> int:
        """Distinct elements touched (the cold-miss floor of any replay)."""
        return int(self.key_flat.size)

    def __len__(self) -> int:
        return self.n_accesses

    # ------------------------------------------------------------------ #
    # decoding
    # ------------------------------------------------------------------ #
    def key_of(self, elem_id: int) -> tuple[str, int]:
        """Decode one element ID back to its ``(matrix, flat)`` key."""
        return (self.matrices[int(self.key_matrix[elem_id])], int(self.key_flat[elem_id]))

    def keys(self) -> list[tuple[str, int]]:
        """All interned keys, indexed by element ID."""
        names = self.matrices
        return [
            (names[m], f)
            for m, f in zip(self.key_matrix.tolist(), self.key_flat.tolist())
        ]

    def op_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(element IDs, write flags) of op ``i``'s accesses."""
        s, e = int(self.op_starts[i]), int(self.op_starts[i + 1])
        return self.elem_ids[s:e], self.is_write[s:e]

    # ------------------------------------------------------------------ #
    # position links
    # ------------------------------------------------------------------ #
    def _links(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) pairs of consecutive accesses to the same element."""
        order = np.argsort(self.elem_ids, kind="stable")
        ids_sorted = self.elem_ids[order]
        same = ids_sorted[1:] == ids_sorted[:-1]
        return order[:-1][same], order[1:][same]

    def next_use(self) -> np.ndarray:
        """``next_use[p]``: position of the next access to ``elem_ids[p]``.

        The sentinel for "never used again" is ``n_accesses`` (so the array
        is directly usable as a priority without overflow games).  Computed
        once via a stable argsort (reverse ``np.unique``-style indexing)
        and cached.
        """
        if self._next_use is None:
            nxt = np.full(self.n_accesses, self.n_accesses, dtype=np.int64)
            src, dst = self._links()
            nxt[src] = dst
            self._next_use = nxt
        return self._next_use

    def prev_access(self) -> np.ndarray:
        """``prev_access[p]``: previous access to the same element, else -1."""
        if self._prev_access is None:
            prev = np.full(self.n_accesses, -1, dtype=np.int64)
            src, dst = self._links()
            prev[dst] = src
            self._prev_access = prev
        return self._prev_access

    # ------------------------------------------------------------------ #
    # derived traces
    # ------------------------------------------------------------------ #
    def reorder(self, order: Sequence[int]) -> "CompiledTrace":
        """The trace of the same ops emitted in a different total order.

        Element interning is shared (no re-compilation): the new stream is
        a gather of the old op slices, which is what makes rescheduling
        sweeps over one recorded trace cheap.
        """
        order = list(order)
        if sorted(order) != list(range(self.n_ops)):
            raise ConfigurationError(
                f"order must be a permutation of 0..{self.n_ops - 1}"
            )
        return self.select_ops(order)

    def select_ops(self, indices: Sequence[int]) -> "CompiledTrace":
        """The sub-trace of a subset of ops, emitted in the given order.

        This is how the sharded executor slices one compiled trace into
        per-node shards without recompiling: element interning (IDs, decode
        tables, ``n_elements``) is shared with the parent, so element IDs
        of different shards remain directly comparable — the cross-shard
        transfer accounting depends on that.  Position links and replay
        caches are *not* shared (next-use is a property of the stream, not
        the interning); the sub-trace recomputes its own lazily.

        ``indices`` may select any subset in any order, but must not repeat
        an op.  :meth:`reorder` is the special case of a full permutation.
        """
        order = [int(i) for i in indices]
        if order and (min(order) < 0 or max(order) >= self.n_ops):
            raise ConfigurationError(
                f"op indices must lie in 0..{self.n_ops - 1}"
            )
        if len(set(order)) != len(order):
            raise ConfigurationError("op indices must not repeat")
        starts = self.op_starts
        picked = np.asarray(order, dtype=np.int64)
        new_sizes = np.diff(starts)[picked]
        new_starts = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(new_sizes, out=new_starts[1:])
        gather = span_indices(starts[:-1][picked], new_sizes)
        read_lens = self.op_read_ends - starts[:-1]
        new_read_ends = new_starts[:-1] + read_lens[picked]
        return CompiledTrace(
            matrices=self.matrices,
            shapes=self.shapes,
            elem_ids=self.elem_ids[gather],
            is_write=self.is_write[gather],
            op_starts=new_starts,
            op_read_ends=new_read_ends,
            key_matrix=self.key_matrix,
            key_flat=self.key_flat,
            ops=[self.ops[i] for i in order] if self.ops is not None else None,
        )


def _ops_of(source: "Schedule | list[ComputeOp]") -> list[ComputeOp]:
    if isinstance(source, Schedule):
        columns = source.columns
        if columns is not None:
            return list(columns.compute_ops())
        return [s.op for s in source.steps if isinstance(s, ComputeStep)]
    return list(source)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def compile_trace(
    source: "Schedule | list[ComputeOp] | CompiledTrace",
    shapes: dict[str, tuple[int, int]] | None = None,
) -> CompiledTrace:
    """Compile a schedule or op list into a :class:`CompiledTrace`.

    Passing an already-compiled trace returns it unchanged, so consumers
    can accept either representation without re-compiling.  A schedule
    that carries columns gives its compute ops without building steps.
    """
    if isinstance(source, CompiledTrace):
        return source
    if isinstance(source, Schedule):
        shapes = dict(source.shapes)
    ops = _ops_of(source)
    if shapes is None:
        shapes = {}

    # The Python pass: intern matrix names (in first-use order, reads
    # before writes) and collect every region's flats, op by op.
    mat_index: dict[str, int] = {}
    sides = ([], [], []), ([], [], [])  # (flats, matrix, regions per op)
    for op in ops:
        for (flats, mats, counts), regions in zip(sides, (op.reads(), op.writes())):
            for region in regions:
                mats.append(mat_index.setdefault(region.matrix, len(mat_index)))
                flats.append(region.flat)
            counts.append(len(regions))

    # Per access of each side: its op, and its global id mi * stride + flat.
    n_ops = len(ops)
    flat_parts = [_concat(flats) for flats, _m, _c in sides]
    top = max((int(f.max()) for f in flat_parts if f.size), default=-1)
    stride = np.int64(top + 1 if top >= 0 else 1)
    op_of, gid = [], []
    for (flats, mats, counts), flat in zip(sides, flat_parts):
        sizes = np.fromiter((f.size for f in flats), dtype=np.int64, count=len(flats))
        region_op = np.repeat(np.arange(n_ops, dtype=np.int64), counts)
        op_of.append(np.repeat(region_op, sizes))
        gid.append(np.repeat(np.asarray(mats, dtype=np.int64), sizes) * stride + flat)
    (read_op, write_op), n_reads = op_of, gid[0].size

    # Intern, then key every access on (op, element).
    uniq, inverse = np.unique(np.concatenate(gid), return_inverse=True)
    read_elem, write_elem = inverse[:n_reads], inverse[n_reads:]
    n_elements = np.int64(uniq.size)
    read_key = read_op * n_elements + read_elem
    write_key = write_op * n_elements + write_elem

    # A read is a write where its op also writes the element; a write is
    # an extra where its op never reads the element.  Both probes land on
    # the first copy of a key in the sorted table.
    table = np.sort(write_key)
    at = np.minimum(np.searchsorted(table, read_key), max(table.size - 1, 0))
    read_written = table[at] == read_key if table.size else np.zeros(n_reads, dtype=bool)
    covered = np.zeros(table.size, dtype=bool)
    covered[at[read_written]] = True
    extra = ~covered[np.searchsorted(table, write_key)]
    extra_op, extra_elem = write_op[extra], write_elem[extra]

    # Each op's reads, then its extras, back to back.
    read_lens = np.bincount(read_op, minlength=n_ops)
    extra_lens = np.bincount(extra_op, minlength=n_ops)
    op_starts = np.zeros(n_ops + 1, dtype=np.int64)
    np.cumsum(read_lens + extra_lens, out=op_starts[1:])
    read_at = span_indices(op_starts[:-1], read_lens)
    extra_at = span_indices(op_starts[:-1] + read_lens, extra_lens)
    elem_ids = np.empty(int(op_starts[-1]), dtype=np.int64)
    elem_ids[read_at], elem_ids[extra_at] = read_elem, extra_elem
    is_write = np.ones(elem_ids.size, dtype=bool)
    is_write[read_at] = read_written

    return CompiledTrace(
        matrices=tuple(mat_index),
        shapes=shapes,
        elem_ids=elem_ids,
        is_write=is_write,
        op_starts=op_starts,
        op_read_ends=op_starts[:-1] + read_lens,
        key_matrix=(uniq // stride).astype(np.int32),
        key_flat=(uniq % stride).astype(np.int64),
        ops=ops,
    )
