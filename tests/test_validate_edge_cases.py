"""Edge-case coverage for sched/validate.py (machine-independent referee).

Complements tests/test_schedule.py: redundant loads under
``allow_redundant_loads``, unknown matrices from every step type,
``require_empty_end=False``, and the guarantee that every violation message
names the offending step index.  Every case runs against both the oracle
walker (``tests/legality_oracle.py``) and ``validate_schedule``.
"""

import numpy as np
import pytest
from legality_oracle import walk_schedule

from repro import TwoLevelMachine
from repro.errors import ScheduleError
from repro.machine.regions import Region
from repro.sched.ops import OuterColsUpdate
from repro.sched.schedule import ComputeStep, EvictStep, LoadStep, Schedule
from repro.sched.validate import validate_schedule

VALIDATORS = (walk_schedule, validate_schedule)


def region(matrix, flats):
    return Region(matrix, np.array(flats, dtype=np.int64))


def simple_schedule(steps, shapes=None):
    return Schedule(steps=list(steps), shapes=shapes or {"A": (2, 2)})


class TestRedundantLoads:
    def schedule(self):
        r = region("A", [0, 1])
        return simple_schedule([LoadStep(r), LoadStep(r), EvictStep(r, writeback=False)])

    def test_rejected_by_default(self):
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match="redundant"):
                validate(self.schedule(), capacity=4)

    def test_allowed_when_opted_in(self):
        for validate in VALIDATORS:
            summary = validate(self.schedule(), capacity=4, allow_redundant_loads=True)
            # the wasted traffic is still counted: both loads contribute
            assert summary["loads"] == 4
            assert summary["peak_occupancy"] == 2

    def test_partial_overlap_counts_full_region(self):
        sched = simple_schedule(
            [
                LoadStep(region("A", [0, 1])),
                LoadStep(region("A", [1, 2])),  # element 1 redundant
                EvictStep(region("A", [0, 1, 2]), writeback=False),
            ]
        )
        for validate in VALIDATORS:
            summary = validate(sched, capacity=4, allow_redundant_loads=True)
            assert summary["loads"] == 4
            assert summary["peak_occupancy"] == 3

    def test_redundant_load_still_capacity_checked(self):
        # only the *fresh* elements count against capacity
        sched = simple_schedule(
            [
                LoadStep(region("A", [0, 1])),
                LoadStep(region("A", [0, 1, 2])),
                EvictStep(region("A", [0, 1, 2]), writeback=False),
            ]
        )
        for validate in VALIDATORS:
            summary = validate(sched, capacity=3, allow_redundant_loads=True)
            assert summary["peak_occupancy"] == 3


class TestUnknownMatrix:
    def test_unknown_in_load(self):
        sched = simple_schedule([LoadStep(region("X", [0]))])
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match="unknown matrix 'X'"):
                validate(sched, capacity=4)

    def test_unknown_in_evict(self):
        sched = simple_schedule([EvictStep(region("X", [0]), writeback=False)])
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match="unknown matrix 'X'"):
                validate(sched, capacity=4)

    def test_unknown_in_compute(self):
        m = TwoLevelMachine(8)
        m.add_matrix("A", np.zeros((2, 2)))
        op = OuterColsUpdate(m, "A", "A", "A", [0], [1], 0, 0)
        sched = simple_schedule([ComputeStep(op)], shapes={"B": (2, 2)})
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match="unknown matrix 'A'"):
                validate(sched, capacity=4)


class TestEmptyEnd:
    def schedule(self):
        return simple_schedule([LoadStep(region("A", [0, 1]))])

    def test_nonempty_end_rejected_by_default(self):
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match="not empty"):
                validate(self.schedule(), capacity=4)

    def test_nonempty_end_allowed_when_opted_out(self):
        for validate in VALIDATORS:
            summary = validate(self.schedule(), capacity=4, require_empty_end=False)
            assert summary == {"loads": 2, "stores": 0, "peak_occupancy": 2}


class TestMessagesNameTheStep:
    def test_redundant_load_names_step(self):
        r = region("A", [0])
        sched = simple_schedule([LoadStep(r), LoadStep(r)])
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match=r"step 1:"):
                validate(sched, capacity=4)

    def test_capacity_violation_names_step(self):
        sched = simple_schedule(
            [LoadStep(region("A", [0, 1])), LoadStep(region("A", [2, 3]))]
        )
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match=r"step 1:.*capacity 3"):
                validate(sched, capacity=3)

    def test_evict_nonresident_names_step(self):
        sched = simple_schedule(
            [LoadStep(region("A", [0])), EvictStep(region("A", [0, 1]), writeback=False)]
        )
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match=r"step 1:.*non-resident"):
                validate(sched, capacity=4)

    def test_compute_nonresident_names_step(self):
        m = TwoLevelMachine(8)
        m.add_matrix("A", np.zeros((2, 2)))
        op = OuterColsUpdate(m, "A", "A", "A", [0], [1], 0, 0)
        sched = simple_schedule(
            [LoadStep(region("A", [0])), ComputeStep(op)], shapes={"A": (2, 2)}
        )
        for validate in VALIDATORS:
            with pytest.raises(ScheduleError, match=r"step 1: compute.*non-resident"):
                validate(sched, capacity=8)
