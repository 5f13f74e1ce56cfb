#!/usr/bin/env python3
"""Out-of-core Gram matrix of a tall-skinny dataset (the SYRK motivation).

Scenario: a dataset of N samples x M features whose Gram matrix G = X Xᵀ is
needed (kernel methods, covariance estimation, normal equations).  N is
large enough that G (N^2/2 elements) dwarfs fast memory, so the schedule —
not the flop count — decides the data movement bill.

This example sweeps dataset heights on a small simulated machine and shows:

* TBS's A-traffic advantage over the square-tile baseline approaches
  (k-1)/s (-> sqrt(2) for large S) — Theorem 5.6 vs Bereux;
* both schedules pay the same one-pass C-traffic (N(N+1)/2);
* measured volumes sit between the Corollary 4.7 lower bound and the
  Theorem 5.6 upper bound;
* the numeric Gram matrix is exact (numeric machine verification at the
  smallest size).

Run:  python examples/gram_matrix_out_of_core.py
"""

import numpy as np

from repro import TwoLevelMachine, ooc_syrk, syrk_lower_bound, tbs_syrk
from repro.analysis.sweep import run_syrk_once
from repro.utils.fmt import Table, banner, format_int
from repro.utils.rng import random_tall_matrix

S = 15          # fast memory (k = 5, s = 3)
M = 16          # features
HEIGHTS = [60, 120, 240, 480]


def verify_smallest() -> None:
    n = HEIGHTS[0]
    x = random_tall_matrix(n, M)
    machine = TwoLevelMachine(S)
    machine.add_matrix("X", x)
    machine.add_matrix("G", np.zeros((n, n)))
    tbs_syrk(machine, "X", "G", range(n), range(M))
    machine.assert_empty()
    err = np.max(np.abs(np.tril(machine.result("G")) - np.tril(x @ x.T)))
    print(f"numeric check at N={n}: max |G - X X^T| = {err:.2e}  (numeric machine)")
    assert err < 1e-10


def main() -> None:
    print(banner("out-of-core Gram matrix: TBS vs square tiles"))
    print(f"\nS = {S}, M = {M} features; sweeping dataset height N\n")
    verify_smallest()

    t = Table(
        ["N", "lower bnd", "Q TBS", "Q OOC_SYRK", "A-ratio", "TBS/bound"]
    )
    for n in HEIGHTS:
        tbs = run_syrk_once("tbs", n, M, S)
        ocs = run_syrk_once("ocs", n, M, S)
        lb = syrk_lower_bound(n, M, S, form="exact")
        t.add_row(
            [
                str(n),
                f"{lb:,.0f}",
                format_int(tbs.loads),
                format_int(ocs.loads),
                f"{ocs.a_loads / tbs.a_loads:.3f}",
                f"{tbs.loads / lb:.3f}",
            ]
        )
    print()
    print(t.render())
    print(
        "\nThe A-ratio approaches (k-1)/s = 1.333 at S=15; rerun with a larger"
        "\nS (e.g. S=5050: k=100, s=70) and the same sweep approaches sqrt(2)."
        "\nTBS/bound > 1 is the one-pass C-traffic plus lower-order terms the"
        "\npaper's Theorem 5.6 accounts for explicitly."
    )


if __name__ == "__main__":
    main()
