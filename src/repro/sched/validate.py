"""Machine-independent legality checking of recorded schedules.

:func:`validate_schedule` is the raising form of the static certifier
(:func:`repro.check.certify.certify_schedule`), the repo's one legality
engine.  It certifies the schedule — no numerics, no machine — and raises
:class:`~repro.errors.ScheduleError` for the certificate's first error,
in ``(op_index, code)`` order with the end-state error after every step
error, against the model's rules:

* a load may not exceed capacity ``S`` (and, by default, may not target
  already-resident elements);
* an evict must target resident elements;
* a compute may only touch resident elements.

This is what lets the test suite prove legality independently of the
simulator that produced the I/O counts.  The raised error carries the
certificate's :class:`~repro.check.findings.Finding` as ``.finding``; the
test suite pins the raised ``(code, op_index)`` against a step-by-step
walker kept in ``tests/`` as the oracle.
"""

from __future__ import annotations

from ..check.findings import ERROR
from ..errors import ScheduleError
from ..machine.regions import Region, merge_regions
from .schedule import LoadStep, Schedule


def validate_schedule(
    schedule: Schedule,
    capacity: int,
    *,
    allow_redundant_loads: bool = False,
    require_empty_end: bool = True,
) -> dict[str, int]:
    """Check every step of ``schedule`` against the model's rules.

    Returns summary counters (loads, stores, peak occupancy) on success,
    raises :class:`ScheduleError` — with a :class:`Finding` attached as
    ``.finding`` — for the first violation: the earliest step with an
    error, and the lowest code among that step's errors.  The end-state
    error (RPS105, filed at the last step) ranks after every step error,
    because a replay fails at a bad step before it reaches the end.
    """
    # Imported at call time: ``repro.check.certify`` imports this package.
    from ..check.certify import certify_schedule

    cert = certify_schedule(
        schedule,
        capacity,
        allow_redundant_loads=allow_redundant_loads,
        require_empty_end=require_empty_end,
    )
    errors = [f for f in cert.findings if f.severity == ERROR]
    if errors:
        # Findings come sorted by (op_index, code).
        f = min(errors, key=lambda f: f.code == "RPS105")
        raise ScheduleError(f"step {f.op_index}: {f.message}", finding=f)
    return {key: cert.stats[key] for key in ("loads", "stores", "peak_occupancy")}


def schedule_footprint(schedule: Schedule) -> dict[str, int]:
    """Distinct elements touched per matrix across the whole schedule.

    Useful for asserting e.g. that TBS reads every element of ``C``'s lower
    triangle exactly once (footprint == loads for that matrix).
    """
    regions: list[Region] = []
    for step in schedule.steps:
        if isinstance(step, LoadStep):
            regions.append(step.region)
    return {r.matrix: r.size for r in merge_regions(regions)}
