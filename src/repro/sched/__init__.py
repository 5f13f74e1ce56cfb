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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ComputeOp": "ops",
    "OuterColsUpdate": "ops",
    "syrk_outer_update": "ops",
    "TriangleUpdate": "ops",
    "TriangleCrossUpdate": "ops",
    "GemmOuterUpdate": "ops",
    "TrsmSolveStep": "ops",
    "UpperSolveStep": "ops",
    "UnitLowerSolveStep": "ops",
    "CholFactorResident": "ops",
    "LuFactorResident": "ops",
    "cholesky_mults": "ops",
    "cholesky_flops": "ops",
    "Schedule": "schedule",
    "LoadStep": "schedule",
    "EvictStep": "schedule",
    "ComputeStep": "schedule",
    "record_schedule": "schedule",
    "replay_schedule": "schedule",
    "validate_schedule": "validate",
    "schedule_footprint": "validate",
})
