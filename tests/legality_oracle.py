"""The step-by-step legality walker: the oracle for the certifier.

:func:`walk_schedule` is the straightforward form of
:func:`repro.sched.validate.validate_schedule`: it replays a schedule
purely symbolically — residency bitmaps and an occupancy counter, no
numerics, no machine — and raises :class:`~repro.errors.ScheduleError` at
the first step that breaks a rule, with the same ``Finding`` codes: the
lowest code among that step's errors, since it collects them all before
it raises.  The end-state check runs after the last step, so it ranks
after every step error.  Production validation runs the event-table
certifier instead (:mod:`repro.check.certify`); the tests pin its first
error and its clean counters to this walker's.
"""

from __future__ import annotations

import numpy as np

from repro.check.findings import Finding
from repro.errors import ScheduleError
from repro.machine.regions import Region
from repro.sched.schedule import ComputeStep, EvictStep, LoadStep, Schedule


def _fail(code: str, message: str, op_index: int | None = None, **context) -> ScheduleError:
    finding = Finding(code=code, message=message, op_index=op_index, context=context)
    return ScheduleError(message, finding=finding)


def walk_schedule(schedule: Schedule, capacity: int) -> dict[str, int]:
    """Check every step of ``schedule`` against the model's rules.

    Returns summary counters (loads, stores, peak occupancy) on success,
    raises :class:`ScheduleError` — with a :class:`Finding` attached as
    ``.finding`` — for the lowest code at the first failing step.
    """
    masks = {name: np.zeros(r * c, dtype=bool) for name, (r, c) in schedule.shapes.items()}
    occupancy = 0
    peak = 0
    loads = 0
    stores = 0

    def in_bounds(region: Region, pos: int, errors: list) -> tuple:
        """``(mask, flats inside the matrix)``; ``(None, None)`` for an
        unknown matrix.  RPS106 and RPS108 land in ``errors``."""
        mask = masks.get(region.matrix)
        if mask is None:
            errors.append(_fail(
                "RPS106",
                f"step references unknown matrix {region.matrix!r}",
                pos,
                matrix=region.matrix,
            ))
            return None, None
        flat = region.flat
        outside = (flat < 0) | (flat >= mask.size)
        if outside.any():
            errors.append(_fail(
                "RPS108",
                f"step {pos}: {int(outside.sum())} element(s) outside "
                f"{region.matrix!r}",
                pos,
                elements=int(outside.sum()),
                matrix=region.matrix,
            ))
            flat = flat[~outside]
        return mask, flat

    for pos, step in enumerate(schedule.steps):
        # Every error of the step is collected; the lowest code is raised.
        errors: list[ScheduleError] = []
        if isinstance(step, LoadStep):
            mask, idx = in_bounds(step.region, pos, errors)
            if mask is not None:
                already = mask[idx]
                if already.any():
                    errors.append(_fail(
                        "RPS102",
                        f"step {pos}: redundant load of {int(already.sum())} resident "
                        f"element(s) of {step.region.matrix!r}",
                        pos,
                        elements=int(already.sum()),
                        matrix=step.region.matrix,
                    ))
                fresh = int((~already).sum())
                if occupancy + fresh > capacity:
                    errors.append(_fail(
                        "RPS104",
                        f"step {pos}: load would push occupancy {occupancy} -> "
                        f"{occupancy + fresh} beyond capacity {capacity}",
                        pos,
                        occupancy=occupancy + fresh,
                        capacity=capacity,
                    ))
                if not errors:
                    mask[idx] = True
                    occupancy += fresh
                    peak = max(peak, occupancy)
                    loads += idx.size
        elif isinstance(step, EvictStep):
            mask, idx = in_bounds(step.region, pos, errors)
            if mask is not None:
                resident = mask[idx]
                if not resident.all():
                    errors.append(_fail(
                        "RPS103",
                        f"step {pos}: evict of {int((~resident).sum())} non-resident "
                        f"element(s) of {step.region.matrix!r}",
                        pos,
                        elements=int((~resident).sum()),
                        matrix=step.region.matrix,
                    ))
                if not errors:
                    mask[idx] = False
                    occupancy -= int(idx.size)
                    if step.writeback:
                        stores += int(idx.size)
        elif isinstance(step, ComputeStep):
            for region in list(step.op.reads()) + list(step.op.writes()):
                mask, idx = in_bounds(region, pos, errors)
                if mask is None:
                    continue
                resident = mask[idx]
                if not resident.all():
                    errors.append(_fail(
                        "RPS101",
                        f"step {pos}: compute {step.op.name!r} touches "
                        f"{int((~resident).sum())} non-resident element(s) of "
                        f"{region.matrix!r}",
                        pos,
                        elements=int((~resident).sum()),
                        matrix=region.matrix,
                        op=step.op.name,
                    ))
        else:  # pragma: no cover - defensive
            raise ScheduleError(f"step {pos}: unknown step type {type(step).__name__}")
        if errors:
            raise min(errors, key=lambda e: e.finding.code)

    if occupancy != 0:
        raise _fail(
            "RPS105",
            f"fast memory not empty at end of schedule ({occupancy} resident)",
            len(schedule.steps) - 1 if schedule.steps else None,
            resident=occupancy,
        )
    return {"loads": loads, "stores": stores, "peak_occupancy": peak}
