#!/usr/bin/env python3
"""Quickstart: run the paper's TBS schedule and see the sqrt(2) story.

Computes C += A Aᵀ (lower triangle) three ways on a simulated two-level
machine with S = 15 fast-memory elements:

* TBS           — the paper's triangle-block schedule (Algorithm 4),
* OOC_SYRK      — Bereux's square-tile baseline,
* the lower bound of Corollary 4.7,

verifies both results against NumPy to machine precision, and prints the
I/O volumes.  Everything here is exact: the machine counts every element
moved between memories.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import TwoLevelMachine, ooc_syrk, syrk_lower_bound, tbs_syrk, triangle_side_for_memory
from repro.utils.fmt import Table, banner, format_int
from repro.utils.rng import random_tall_matrix

N, M, S = 60, 8, 15


def run(schedule_fn, name: str, a: np.ndarray):
    machine = TwoLevelMachine(S)  # numeric: NaN-poisoned verification
    machine.add_matrix("A", a)
    machine.add_matrix("C", np.zeros((N, N)))
    stats = schedule_fn(machine, "A", "C", range(N), range(M))
    machine.assert_empty()
    # verify against the in-memory reference
    reference = np.tril(a @ a.T)
    error = np.max(np.abs(np.tril(machine.result("C")) - reference))
    assert error < 1e-10, f"{name} failed verification: {error}"
    return stats


def main() -> None:
    print(banner("repro quickstart: I/O-optimal SYRK (SPAA'22)"))
    a = random_tall_matrix(N, M)
    k = triangle_side_for_memory(S)
    print(f"\nmachine: S = {S} elements  ->  triangle side k = {k}, square tile s = 3")
    print(f"problem: C (lower {N}x{N}) += A ({N}x{M}) A^T\n")

    tbs = run(tbs_syrk, "TBS", a)
    ocs = run(ooc_syrk, "OOC_SYRK", a)
    lb = syrk_lower_bound(N, M, S, form="exact")

    t = Table(["schedule", "Q = loads", "A-traffic", "C-traffic", "peak mem"])
    t.add_row(["lower bound (Cor 4.7)", f"{lb:,.0f}", "-", "-", "-"])
    t.add_row(
        ["TBS (Algorithm 4)", format_int(tbs.loads), format_int(tbs.loads_by_matrix["A"]),
         format_int(tbs.loads_by_matrix["C"]), format_int(tbs.peak_occupancy)]
    )
    t.add_row(
        ["OOC_SYRK (Bereux)", format_int(ocs.loads), format_int(ocs.loads_by_matrix["A"]),
         format_int(ocs.loads_by_matrix["C"]), format_int(ocs.peak_occupancy)]
    )
    print(t.render())

    ratio = ocs.loads_by_matrix["A"] / tbs.loads_by_matrix["A"]
    print(
        f"\nA-traffic ratio OOC_SYRK / TBS = {ratio:.3f}"
        f"  (finite-S target (k-1)/s = {4 / 3:.3f}; -> sqrt(2) = 1.414 as S grows)"
    )
    print("both results verified against NumPy to 1e-10.  Done.")


if __name__ == "__main__":
    main()
