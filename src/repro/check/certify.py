"""Static memory certifier for recorded schedules: the one legality engine.

:func:`certify_schedule` proves (or refutes) the two-level model's memory
invariants from the load/evict stream alone — no machine, no replay, no
per-step bitmap walk — and reports *every* finding.
:func:`repro.sched.validate.validate_schedule` is its raising form: the
certificate's first error becomes a :class:`~repro.errors.ScheduleError`.
The whole schedule is flattened into one event table (element id, event
code, step position), sorted once by element and step, and every rule
becomes a vectorized predicate over *adjacent events of the same
element*.  The table has two halves.  The load and evict events come
from the schedule's container columns (:mod:`repro.sched.columns`) in a
few vectorized passes, without a region or step object; for a recorded
or hand-built schedule, one pass over its steps yields the same moves
(:func:`~repro.sched.columns.split_steps`).  The use
and write events come from a walk over the compute ops alone, reading
each op's regions.  The rules:

* ``LOAD`` after a resident event        -> RPS102 (double load)
* ``USE``/``WRITE`` after a non-resident -> RPS101 (use before load)
* ``EVICT`` after a non-resident         -> RPS103 (evict without load)
* ``EVICT`` directly after ``LOAD``      -> RPS201 (dead evict, warning)
* writeback with no write since load     -> RPS202 (store of clean, warning)

An element outside its matrix (a flat at or past ``rows * cols``, or
negative) is RPS108, reported at the first step that names one, and is
kept out of the event table, where it would alias another matrix's
element.

Peak residency is then *exact* arithmetic: +1 at every fresh load, -1 at
every resident evict, cumulated in step order — the first position whose
running occupancy exceeds ``capacity`` is RPS104, and a non-empty final
residency set is RPS105.  A step that is not a load, evict or compute
raises :class:`~repro.errors.ScheduleError` outright.  Up to the first
error the stream semantics and the step-by-step replay semantics
coincide, so the first error is the one a replay would stop at: the test
suite pins the raised ``(code, op_index)`` and the clean counters against
an independent step walker kept in ``tests/legality_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.probe import get_probe, timed
from ..sched.columns import COMPUTE, LOAD, split_steps
from ..sched.schedule import Schedule
from .findings import ERROR, Finding, sort_findings

# Event codes.  Resident-making/keeping events are <= WRITE; the sentinel
# marks "no previous event" (element starts non-resident).
_LOAD, _USE, _WRITE, _EVICT, _EVICT_WB, _ABSENT = 0, 1, 2, 3, 4, 5


@dataclass
class Certificate:
    """The result of one static certification pass."""

    findings: list[Finding] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff no error-severity finding was produced."""
        return not any(f.severity == ERROR for f in self.findings)


def certify_schedule(schedule: Schedule, capacity: int) -> Certificate:
    """Statically certify ``schedule`` against capacity ``capacity``.

    Returns a :class:`Certificate` whose ``findings`` list every violation
    (it does not stop at the first, unlike ``validate_schedule``) and whose
    ``stats`` carry the ``loads``/``stores``/``peak_occupancy`` counters
    ``validate_schedule`` returns.  Raises :class:`ScheduleError` on a step
    that is not a load, evict or compute.
    """
    with timed("check.certify"):
        cert = _certify(schedule, capacity)
    probe = get_probe()
    if probe.enabled:
        probe.count("check.certify.runs")
        probe.count("check.certify.steps", cert.stats.get("n_steps", 0))
        probe.count("check.certify.findings", len(cert.findings))
    return cert


def _certify(schedule: Schedule, capacity: int) -> Certificate:
    shapes = schedule.shapes
    columns = schedule.columns
    if columns is None:
        # A step list: one pass gives the moves and the ops, which is all
        # the certifier reads (no params tables, no index arrays).
        matrix_ids, kind, (mref, writeback, sizes, move_flats), ops = split_steps(
            schedule.steps, shapes
        )
        names = list(matrix_ids)
        mpos = np.flatnonzero(kind != COMPUTE)
        is_load = kind[mpos] == LOAD
    else:
        mpos, mref, is_load, writeback, sizes, move_flats = columns.moves()
        names, kind, ops = columns.names, columns.kind, columns.compute_ops()
    n_steps = int(kind.size)
    stride = max((r * c for r, c in shapes.values()), default=0) + 1
    known = {name: i for i, name in enumerate(shapes)}

    # The event table has one row per element of each region: the load
    # and evict regions come from the moves, and each compute op's
    # regions from a walk over the ops.  ``seen`` records where each
    # matrix first appears, as (step, region order).
    ids, first = np.unique(mref, return_index=True)
    seen = {names[i]: (at, -1) for i, at in zip(ids.tolist(), mpos[first].tolist())}
    named = mref < len(shapes)
    if not named.all():
        move_flats = move_flats[np.repeat(named, sizes)]
        mpos, mref, is_load, writeback, sizes = (
            a[named] for a in (mpos, mref, is_load, writeback, sizes)
        )

    # An accumulator read is subsumed by its write event (same residency
    # requirement, and WRITE also marks dirty).
    regions: list = []
    n_use: list[int] = []
    n_write: list[int] = []
    cpos = np.flatnonzero(kind == COMPUTE)
    for op in ops:
        writes = list(op.writes())
        written = [id(w) for w in writes]
        reads = [r for r in op.reads() if id(r) not in written]
        regions += reads
        regions += writes
        n_use.append(len(reads))
        n_write.append(len(writes))
    uses = np.asarray(n_use, dtype=np.int64)
    per_op = uses + np.asarray(n_write, dtype=np.int64)
    region_pos = np.repeat(cpos, per_op)
    k = np.arange(region_pos.size) - np.repeat(np.cumsum(per_op) - per_op, per_op)
    region_code = np.where(k < np.repeat(uses, per_op), _USE, _WRITE)
    names = [r.matrix for r in regions]
    # each name's first region: later duplicates overwrite, so walk backwards
    for name, i in dict(zip(reversed(names), range(len(names) - 1, -1, -1))).items():
        at = (int(region_pos[i]), i)
        seen[name] = min(at, seen.get(name, at))
    region_mi = np.array([known.get(name, -1) for name in names], dtype=np.int64)
    if (region_mi < 0).any():
        keep = region_mi >= 0
        regions = [r for r, kept in zip(regions, keep.tolist()) if kept]
        region_mi, region_code, region_pos = region_mi[keep], region_code[keep], region_pos[keep]

    # Matrices are numbered in first-appearance order, and a name the
    # shapes lack is RPS106 where it first appears.
    order = sorted(seen, key=seen.__getitem__)
    matrices = [name for name in order if name in known]
    rank = np.zeros(len(shapes), dtype=np.int64)
    rank[np.array([known[name] for name in matrices], dtype=np.int64)] = np.arange(len(matrices))
    mat_size = [shapes[name][0] * shapes[name][1] for name in matrices]
    findings = [
        Finding(
            code="RPS106",
            message=f"step references unknown matrix {name!r}",
            op_index=seen[name][0],
            context={"matrix": name},
        )
        for name in order
        if name not in known
    ]

    stats = {"loads": 0, "stores": 0, "peak_occupancy": 0, "n_steps": n_steps}
    flats = [r.flat for r in regions]
    sizes = np.concatenate([sizes, np.fromiter(map(len, flats), np.int64, len(flats))])
    flat = np.concatenate([move_flats, *flats])
    if not flat.size:
        return Certificate(findings=sort_findings(findings), stats=stats)

    # global element id: flat + matrix rank * stride; the same pass finds
    # every flat outside its matrix
    move_code = np.where(is_load, _LOAD, np.where(writeback, _EVICT_WB, _EVICT))
    mi = np.repeat(rank[np.concatenate([mref, region_mi])], sizes)
    gid = flat + mi * stride
    code = np.repeat(np.concatenate([move_code, region_code]).astype(np.int8), sizes)
    pos_ = np.repeat(np.concatenate([mpos, region_pos]).astype(np.int32), sizes)
    outside = (flat < 0) | (flat >= np.asarray(mat_size, dtype=np.int64)[mi])
    if outside.any():
        # Such an element would alias another matrix's (or none): report
        # it at the first step that names one (rows of one step keep
        # their region order), and keep it out of the table.
        hits = np.flatnonzero(outside)
        first = hits[np.argmin(pos_[hits])]
        matrix = matrices[int(mi[first])]
        findings.append(
            Finding(
                code="RPS108",
                message=(
                    f"{hits.size} element(s) outside their matrix, first "
                    f"{matrix}[{int(flat[first])}] of {shapes[matrix]}"
                ),
                op_index=int(pos_[first]),
                context={"elements": int(hits.size), "example": [matrix, int(flat[first])]},
            )
        )
        keep = ~outside
        gid, code, pos_ = gid[keep], code[keep], pos_[keep]
        if not gid.size:
            return Certificate(findings=sort_findings(findings), stats=stats)
    # Per-element event chains: a stable sort by (element id, step) puts
    # each chain in step order, and a step's rows in region order, so
    # "previous event of the same element" is just the previous row (or
    # the ABSENT sentinel at a chain head).
    order = np.argsort(gid * max(n_steps, 1) + pos_, kind="stable")
    gid, code, pos_ = gid[order], code[order], pos_[order]
    if len(matrices) * stride <= np.iinfo(np.int32).max:
        gid = gid.astype(np.int32, copy=False)  # halves gather traffic
    first = np.empty(gid.size, dtype=bool)
    first[0] = True
    first[1:] = gid[1:] != gid[:-1]
    prev = np.empty_like(code)
    prev[0] = _ABSENT
    prev[1:] = code[:-1]
    prev[first] = _ABSENT

    prev_in = prev <= _WRITE
    is_load = code == _LOAD
    is_touch = (code == _USE) | (code == _WRITE)
    is_evict = code >= _EVICT

    stats["loads"] = int(is_load.sum())
    stats["stores"] = int((code == _EVICT_WB).sum())

    def report(mask: np.ndarray, fcode: str, fmt) -> None:
        if not mask.any():
            return
        at = np.unique(pos_[mask])
        hits = np.flatnonzero(mask)
        hit_pos = pos_[hits]
        for p in at.tolist():
            sel = hits[hit_pos == p]
            g = int(gid[sel[0]])
            matrix, flat = matrices[g // stride], g % stride
            findings.append(
                Finding(
                    code=fcode,
                    message=fmt(int(sel.size), matrix),
                    op_index=int(p),
                    context={
                        "elements": int(sel.size),
                        "example": [matrix, int(flat)],
                    },
                )
            )

    report(
        is_load & prev_in,
        "RPS102",
        lambda n, m: f"redundant load of {n} resident element(s) of {m!r}",
    )
    report(
        is_touch & ~prev_in,
        "RPS101",
        lambda n, m: f"compute touches {n} non-resident element(s) of {m!r}",
    )
    report(
        is_evict & ~prev_in,
        "RPS103",
        lambda n, m: f"evict of {n} non-resident element(s) of {m!r}",
    )
    report(
        is_evict & (prev == _LOAD),
        "RPS201",
        lambda n, m: f"dead evict: {n} element(s) of {m!r} loaded but never touched",
    )

    # Store-of-clean: a writeback evict whose element saw no WRITE since
    # its most recent LOAD.  One *global* cummax suffices: rows are in
    # chain-major order, so the most recent LOAD/WRITE row before a
    # writeback is the writeback's own chain's whenever the chain has one
    # — and the ``prev_in`` guard keeps chains that don't (their heads are
    # already RPS101/RPS103 errors) out of this warning.  Encoding the
    # event in the mark's low bit turns "write after load?" into a parity
    # test, all in int32.
    idx_dtype = np.int32 if gid.size < 2**30 else np.int64
    idx2 = np.arange(gid.size, dtype=idx_dtype) << 1
    is_write = code == _WRITE
    marks = np.where(is_load | is_write, idx2 + is_write, 0)
    dirty = (np.maximum.accumulate(marks) & 1).astype(bool)
    report(
        (code == _EVICT_WB) & prev_in & ~dirty,
        "RPS202",
        lambda n, m: f"writeback of {n} clean element(s) of {m!r} (no write since load)",
    )

    # Exact occupancy: fresh loads enter, resident evicts leave; everything
    # erroneous (double loads, phantom evicts) is already flagged above and
    # charged conservatively (a double load occupies nothing new).
    delta = np.bincount(
        pos_[is_load & ~prev_in], minlength=n_steps
    ) - np.bincount(pos_[is_evict & prev_in], minlength=n_steps)
    occ = np.cumsum(delta)
    peak = int(occ.max(initial=0))
    stats["peak_occupancy"] = peak
    over = occ > capacity
    if over.any():
        p = int(np.argmax(over))
        findings.append(
            Finding(
                code="RPS104",
                message=(
                    f"load pushes occupancy to {int(occ[p])} beyond "
                    f"capacity {capacity}"
                ),
                op_index=p,
                context={"occupancy": int(occ[p]), "capacity": capacity, "peak": peak},
            )
        )

    last = np.empty(gid.size, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    resident_at_end = last & (code <= _WRITE)
    residual = int(resident_at_end.sum())
    if residual:
        g = int(gid[np.argmax(resident_at_end)])
        findings.append(
            Finding(
                code="RPS105",
                message=(
                    f"fast memory not empty at end of schedule "
                    f"({residual} resident)"
                ),
                op_index=n_steps - 1,
                context={
                    "resident": residual,
                    "example": [matrices[g // stride], int(g % stride)],
                },
            )
        )

    return Certificate(findings=sort_findings(findings), stats=stats)
