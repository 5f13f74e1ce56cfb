"""Schedule IR: compute ops, op-stream recording/replay, and legality checks.

Algorithms in this library drive a :class:`~repro.machine.machine.TwoLevelMachine`
imperatively, but every machine call can also be *recorded* into a flat op
stream (:class:`~repro.sched.schedule.Schedule`), replayed on another
machine, and validated without any machine at all
(:func:`~repro.sched.validate.validate_schedule`).  This is what lets the
test suite prove schedule legality independently of the simulator that
produced the counts.  A rewritten or stored schedule is held as integer
columns (:mod:`repro.sched.columns`) and builds its step objects only
when a caller reads them.
"""

from .ops import (
    ComputeOp,
    OuterColsUpdate,
    syrk_outer_update,
    TriangleUpdate,
    TriangleCrossUpdate,
    GemmOuterUpdate,
    TrsmSolveStep,
    UpperSolveStep,
    UnitLowerSolveStep,
    CholFactorResident,
    LuFactorResident,
    cholesky_mults,
    cholesky_flops,
)
from .schedule import (
    Schedule,
    LoadStep,
    EvictStep,
    ComputeStep,
    record_schedule,
    replay_schedule,
)
from .validate import validate_schedule, schedule_footprint

__all__ = [
    "ComputeOp",
    "OuterColsUpdate",
    "syrk_outer_update",
    "TriangleUpdate",
    "TriangleCrossUpdate",
    "GemmOuterUpdate",
    "TrsmSolveStep",
    "UpperSolveStep",
    "UnitLowerSolveStep",
    "CholFactorResident",
    "LuFactorResident",
    "cholesky_mults",
    "cholesky_flops",
    "Schedule",
    "LoadStep",
    "EvictStep",
    "ComputeStep",
    "record_schedule",
    "replay_schedule",
    "validate_schedule",
    "schedule_footprint",
]
