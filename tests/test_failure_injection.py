"""Failure injection: every way a schedule can be wrong must fail loudly.

The simulator's value as a measurement instrument rests on these: capacity
violations, non-resident touches, redundant loads, and omitted writebacks
must all be *detected*, not silently absorbed.
"""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.errors import (
    CapacityError,
    RedundantLoadError,
    ResidencyError,
    ScheduleError,
)
from repro.sched.ops import OuterColsUpdate, TriangleUpdate
from repro.sched.schedule import EvictStep, LoadStep, Schedule, record_schedule
from repro.sched.validate import validate_schedule


def machine(s=10, **kw):
    m = TwoLevelMachine(s, **kw)
    m.add_matrix("A", np.arange(20, dtype=float).reshape(5, 4))
    m.add_matrix("C", np.zeros((5, 5)))
    return m


class TestCapacityInjection:
    def test_oversized_single_load(self):
        m = machine(s=3)
        with pytest.raises(CapacityError) as exc:
            m.load(m.tile("A", [0, 1], [0, 1]))
        assert exc.value.requested == 4
        assert exc.value.capacity == 3

    def test_accumulated_overflow(self):
        m = machine(s=4)
        m.load(m.tile("A", [0], [0, 1, 2]))
        with pytest.raises(CapacityError):
            m.load(m.tile("A", [1], [0, 1]))

    def test_failed_load_leaves_state_clean(self):
        m = machine(s=4)
        m.load(m.tile("A", [0], [0, 1, 2]))
        before = m.stats.loads
        with pytest.raises(CapacityError):
            m.load(m.tile("A", [1], [0, 1]))
        assert m.stats.loads == before
        assert m.occupancy() == 3
        # the rejected region is loadable after making room
        m.evict(m.tile("A", [0], [0, 1, 2]))
        m.load(m.tile("A", [1], [0, 1]))


class TestResidencyInjection:
    def test_compute_on_missing_input(self):
        m = machine()
        m.load(m.tile("C", [1], [0]))
        m.load(m.column_segment("A", [1], 0))
        # forgot A[0, 0]
        with pytest.raises(ResidencyError):
            m.compute(OuterColsUpdate(m, "C", "A", "A", [1], [0], 0, 0))

    def test_compute_on_missing_output(self):
        m = machine()
        m.load(m.column_segment("A", [1], 0))
        m.load(m.column_segment("A", [0], 0))
        with pytest.raises(ResidencyError):
            m.compute(OuterColsUpdate(m, "C", "A", "A", [1], [0], 0, 0))

    def test_partial_residency_detected(self):
        m = machine()
        m.load(m.triangle_block("C", [0, 1, 2]))
        m.load(m.column_segment("A", [0, 1], 0))  # missing row 2
        with pytest.raises(ResidencyError):
            m.compute(TriangleUpdate(m, "C", "A", [0, 1, 2], 0))

    def test_evict_partial(self):
        m = machine()
        m.load(m.tile("C", [0], [0]))
        with pytest.raises(ResidencyError):
            m.evict(m.tile("C", [0], [0, 1]))


class TestRedundantLoadInjection:
    def test_detected_by_default(self):
        m = machine()
        m.load(m.tile("A", [0], [0, 1]))
        with pytest.raises(RedundantLoadError):
            m.load(m.tile("A", [0], [1, 2]))  # overlaps in (0,1)

    def test_validator_catches_it_too(self):
        # The machine refuses to record a double load, so build the steps.
        reg = machine().tile("A", [0], [0])
        steps = [LoadStep(reg), LoadStep(reg), EvictStep(reg, False)]
        sched = Schedule(steps=steps, shapes={"A": (5, 4), "C": (5, 5)})
        with pytest.raises(ScheduleError, match="redundant") as err:
            validate_schedule(sched, capacity=10)
        assert (err.value.finding.code, err.value.finding.op_index) == ("RPS102", 1)


class TestWritebackOmission:
    def test_strict_mode_detects_lost_update(self):
        # A schedule that computes but forgets the writeback produces a
        # stale slow-memory result -> verification against the reference
        # fails.  This is the NaN-poison/strictness contract.
        m = machine()
        a = m.result("A").copy()
        tile = m.tile("C", [1], [0])
        m.load(tile)
        m.load(m.column_segment("A", [1], 1))
        m.load(m.column_segment("A", [0], 1))
        m.compute(OuterColsUpdate(m, "C", "A", "A", [1], [0], 1, 1))
        m.evict(tile, writeback=False)  # BUG injected here
        expected = a[1, 1] * a[0, 1]
        assert expected != 0.0
        assert m.result("C")[1, 0] != pytest.approx(expected)

    def test_forgotten_load_poisons_result(self):
        # Reading C without loading it first is impossible (residency), but
        # a *wrongly-scoped* load is the sneakier bug: load only part of a
        # region via a differently-shaped op. Strict mode NaNs anything not
        # covered, so the result cannot silently look right.
        m = machine()
        ws = m.workspace("C")
        assert np.isnan(ws).all()


class TestValidatorEndState:
    def test_leak_detection(self):
        m = machine()
        sched = record_schedule(m, lambda: m.load(m.tile("A", [0], [0])))
        with pytest.raises(ScheduleError, match="not empty") as err:
            validate_schedule(sched, capacity=10)
        assert err.value.finding.code == "RPS105"

    def test_evict_never_loaded(self):
        m = machine()
        reg = m.tile("A", [0], [0])
        sched = Schedule(steps=[EvictStep(reg, False)], shapes={"A": (5, 4), "C": (5, 5)})
        with pytest.raises(ScheduleError, match="non-resident"):
            validate_schedule(sched, capacity=10)
