"""I/O accounting: the numbers every experiment in this reproduction reports.

:class:`IOStats` counts, per matrix and in total:

* ``loads``  — elements moved slow -> fast.  This is the paper's ``Q``
  ("data accesses"; see DESIGN.md section 4 for the convention discussion).
* ``stores`` — elements written back fast -> slow.
* ``mults`` / ``flops`` — multiply count and total flop count of compute
  ops, used for operational-intensity measurements (the paper's OI results
  are stated both per-multiply, max ``sqrt(S/2)``, and per-flop, max
  ``sqrt(2S)``).
* op counters and peak fast-memory occupancy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Mutable I/O + work counters for one machine run."""

    loads: int = 0
    stores: int = 0
    mults: int = 0
    flops: int = 0
    n_loads: int = 0
    n_evicts: int = 0
    n_computes: int = 0
    peak_occupancy: int = 0
    loads_by_matrix: Counter = field(default_factory=Counter)
    stores_by_matrix: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------ #
    @property
    def q(self) -> int:
        """The paper-convention I/O volume: loads only (see DESIGN.md §4)."""
        return self.loads

    def operational_intensity(self, per: str = "mults") -> float:
        """Measured operational intensity: work / Q.

        ``per='mults'`` matches the paper's per-multiplication OI (ceiling
        ``sqrt(S/2)`` for symmetric kernels); ``per='flops'`` counts adds too
        (ceiling ``sqrt(2S)``).
        """
        work = self.mults if per == "mults" else self.flops
        if self.loads == 0:
            return float("inf") if work else 0.0
        return work / self.loads

    # ------------------------------------------------------------------ #
    def record_load(self, matrix: str, size: int, occupancy: int) -> None:
        self.loads += size
        self.n_loads += 1
        self.loads_by_matrix[matrix] += size
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def record_evict(self, matrix: str, written: int) -> None:
        self.stores += written
        self.n_evicts += 1
        if written:
            self.stores_by_matrix[matrix] += written

    def record_compute(self, mults: int, flops: int) -> None:
        self.mults += mults
        self.flops += flops
        self.n_computes += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> "IOStats":
        """An independent copy (for before/after diffs around a phase)."""
        return IOStats(
            loads=self.loads,
            stores=self.stores,
            mults=self.mults,
            flops=self.flops,
            n_loads=self.n_loads,
            n_evicts=self.n_evicts,
            n_computes=self.n_computes,
            peak_occupancy=self.peak_occupancy,
            loads_by_matrix=Counter(self.loads_by_matrix),
            stores_by_matrix=Counter(self.stores_by_matrix),
        )

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` (a snapshot of this tracker)."""
        return IOStats(
            loads=self.loads - earlier.loads,
            stores=self.stores - earlier.stores,
            mults=self.mults - earlier.mults,
            flops=self.flops - earlier.flops,
            n_loads=self.n_loads - earlier.n_loads,
            n_evicts=self.n_evicts - earlier.n_evicts,
            n_computes=self.n_computes - earlier.n_computes,
            peak_occupancy=self.peak_occupancy,
            loads_by_matrix=self.loads_by_matrix - earlier.loads_by_matrix,
            stores_by_matrix=self.stores_by_matrix - earlier.stores_by_matrix,
        )
