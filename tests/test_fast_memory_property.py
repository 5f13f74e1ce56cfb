"""Property-based check of the held-region ledger against the mask-only machine.

:class:`~repro.machine.fast_memory.FastMemory` skips the element gather
for a residency check or an evict that names a *held* region: one loaded
whole, with a read-only flat, that has lost no element since.
``legality_oracle.MaskFastMemory`` is the fast memory as it was before,
gathering from the masks on every check.  Random step streams over two
small matrices run on a production machine and on one with
``MaskFastMemory`` swapped in, counting and numeric, and after every step
the two must agree on the exception (class and message), the occupancy
and the :class:`~repro.machine.tracker.IOStats`; numeric runs must also
end with equal slow memory and shadows.

The streams reuse region objects: table regions (tiles, lower tiles,
column and row segments, empty tiles), read-only sub-views and copies of
them, unions, hand-built writable regions, empty regions and a region of
an unknown matrix.  They evict through foreign regions (a copy, a
sub-view or a union of a loaded region) and rewrite a writable region's
flat in place while it is loaded, which only the element checks notice.
Hypothesis drives the stream when available; a seeded random sweep runs
either way.
"""

import random

import numpy as np

from legality_oracle import MaskFastMemory
from repro import TwoLevelMachine
from repro.machine.regions import (
    Region,
    column_segment_region,
    lower_tile_region,
    merge_regions,
    row_segment_region,
    tile_region,
)
from repro.sched.ops import ComputeOp

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

SHAPES = {"X": (4, 4), "Y": (3, 4)}
INPUTS = {
    name: np.arange(rows * cols, dtype=np.float64).reshape(rows, cols) + 1.0
    for name, (rows, cols) in SHAPES.items()
}


class PoolOp(ComputeOp):
    """An op over pool regions: each write region takes half its value
    plus a bounded function of every element it reads."""

    mults, flops = 1, 2

    def __init__(self, reads: list[Region], writes: list[Region]):
        self._reads, self._writes = reads, writes

    def reads(self) -> list[Region]:
        return self._reads

    def writes(self) -> list[Region]:
        return self._writes

    def apply(self, m) -> None:
        total = sum(float(m.workspace(r.matrix).ravel()[r.flat].sum()) for r in self._reads)
        for w in self._writes:
            ws = m.workspace(w.matrix).ravel()
            ws[w.flat] = ws[w.flat] * 0.5 + np.tanh(total)


def read_only(matrix: str, flat) -> Region:
    arr = np.array(flat, dtype=np.int64)
    arr.setflags(write=False)
    return Region(matrix, arr)


def region_pool(randint) -> tuple[list[Region], list[Region], dict[int, list[Region]]]:
    """The table regions, every region a stream draws from, and each table
    region's relatives (the foreign regions an evict may name instead)."""

    def subset(limit: int, least: int = 1) -> list[int]:
        return sorted(random.Random(randint(0, 10**6)).sample(range(limit), randint(least, limit)))

    tables = []
    for name, (rows, cols) in SHAPES.items():
        for _ in range(3):
            tables.append(tile_region(name, subset(rows), subset(cols), cols))
        tables.append(lower_tile_region(name, subset(rows), cols, strict=bool(randint(0, 1))))
        tables.append(column_segment_region(name, subset(rows), randint(0, cols - 1), cols))
        tables.append(row_segment_region(name, randint(0, rows - 1), subset(cols), cols))
    relatives: dict[int, list[Region]] = {}
    for t in tables:
        a = randint(0, t.size)
        b = randint(a, t.size)
        kin = [
            Region(t.matrix, t.flat[a:b]),  # a read-only sub-view
            Region(t.matrix, t.flat.copy()),  # a writable copy
            read_only(t.matrix, t.flat),  # a read-only copy
        ]
        others = [u for u in tables if u.matrix == t.matrix and u is not t]
        other = others[randint(0, len(others) - 1)]
        kin.append(merge_regions([t, other])[0])  # a writable union
        kin.append(read_only(t.matrix, np.union1d(t.flat, other.flat)))
        relatives.setdefault(id(t), kin)
    pool = tables + [r for kin in relatives.values() for r in kin]
    for name, (rows, cols) in SHAPES.items():
        pool.append(Region(name, np.array(subset(rows * cols))))  # hand-built, writable
        pool.append(Region(name, np.array([], dtype=np.int64)))
        pool.append(read_only(name, []))
        pool.append(tile_region(name, [], subset(cols), cols))  # an empty table region
    pool.append(Region("Z", np.array([0])))  # an unknown matrix
    return tables, pool, relatives


def machine_pair(capacity: int, numerics: bool) -> tuple[TwoLevelMachine, TwoLevelMachine]:
    """A production machine and one whose fast memory is ``MaskFastMemory``."""
    prod = TwoLevelMachine(capacity, numerics=numerics)
    ref = TwoLevelMachine(capacity, numerics=numerics)
    ref.fast = MaskFastMemory(capacity, numerics=numerics)
    for m in (prod, ref):
        for name, array in INPUTS.items():
            m.add_matrix(name, array)
    return prod, ref


def outcome(step, machine) -> tuple | None:
    try:
        step(machine)
    except Exception as exc:  # every class the verbs raise, compared below
        return type(exc), str(exc)
    return None


def check_stream(randint) -> None:
    """Draw one stream and run it on both pairs, step by step."""
    tables, pool, relatives = region_pool(randint)
    capacity = randint(3, 24)
    pairs = [machine_pair(capacity, numerics) for numerics in (False, True)]
    live: list[Region] = []  # regions whose load succeeded, until evicted by identity

    def pick(regions: list[Region]) -> Region:
        return regions[randint(0, len(regions) - 1)]

    for pos in range(randint(8, 40)):
        kind = randint(0, 6)
        target = None
        if kind <= 1:
            region = pick(pool if kind == 0 else tables)
            step = lambda m, r=region: m.load(r)  # noqa: E731
        elif kind <= 4:
            if kind == 2 or not live:
                region = pick(pool)
            elif kind == 3:
                region = target = pick(live)
            else:
                owner = pick(live)
                region = pick(relatives.get(id(owner), pool))
            step = lambda m, r=region, wb=bool(randint(0, 1)): m.evict(r, writeback=wb)  # noqa: E731
        elif kind == 5:
            reads = [pick(live if live and randint(0, 2) else pool) for _ in range(randint(1, 3))]
            writes = [pick(reads if randint(0, 1) else pool) for _ in range(randint(0, 2))]
            step = lambda m, op=PoolOp(reads, writes): m.compute(op)  # noqa: E731
        else:  # rewrite a writable region's flat in place, most often a loaded one
            writable = [r for r in live if r.flat.flags.writeable]
            if not writable or randint(0, 2) == 0:
                writable = [r for r in pool if r.flat.flags.writeable and r.size and r.matrix in SHAPES]
            region = pick(writable)
            rows, cols = SHAPES[region.matrix]
            fresh = random.Random(randint(0, 10**6)).sample(range(rows * cols), region.size)
            region.flat[:] = sorted(fresh)
            continue
        results = []
        for prod, ref in pairs:
            got, want = outcome(step, prod), outcome(step, ref)
            assert got == want, (pos, got, want)
            assert prod.fast.occupancy == ref.fast.occupancy, pos
            assert prod.stats == ref.stats, pos
            results.append(want)
        if kind <= 1 and results[0] is None and region.size:
            live.append(region)
        if target is not None and results[0] is None:
            live = [r for r in live if r is not target]
    for prod, ref in pairs[1:]:
        for name in SHAPES:
            assert np.array_equal(prod.result(name), ref.result(name), equal_nan=True)
            assert np.array_equal(prod.workspace(name), ref.workspace(name), equal_nan=True)


if HAVE_HYPOTHESIS:

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_ledger_matches_masks_hypothesis(data):
        check_stream(lambda lo, hi: data.draw(st.integers(lo, hi)))


def test_ledger_matches_masks_seeded_sweep():
    rng = random.Random(2033)
    for _ in range(300):
        check_stream(rng.randint)
