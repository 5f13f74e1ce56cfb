#!/usr/bin/env python3
"""The future-work kernel: triangle-block SYR2K (C += A·Bᵀ + B·Aᵀ).

The paper's conclusion predicts its triangle-block idea extends "to other
kernels which use the same input several times".  This example runs the
extension implemented in :mod:`repro.core.syr2k`: the same partition
geometry as TBS, two streamed column segments per iteration, and the same
sqrt(2) advantage over square tiles — here demonstrated on a symmetric
cross-covariance update, verified on the numeric machine.

Run:  python examples/syr2k_extension.py
"""

import numpy as np

from repro import TwoLevelMachine
from repro.core.syr2k import (
    ooc_syr2k,
    syr2k_lower_bound,
    syr2k_reference,
    syr2k_square_tile_side,
    syr2k_triangle_side_for_memory,
    tbs_syr2k,
)
from repro.utils.fmt import Table, banner, format_int
from repro.utils.rng import random_tall_matrix

N, M, S = 80, 8, 14  # S=14: SYR2K triangle side k=4, tile t=2


def run(fn, name, a, b):
    machine = TwoLevelMachine(S)
    machine.add_matrix("A", a)
    machine.add_matrix("B", b)
    machine.add_matrix("C", np.zeros((N, N)))
    stats = fn(machine, "A", "B", "C", range(N), range(M))
    machine.assert_empty()
    err = np.max(np.abs(np.tril(machine.result("C")) - syr2k_reference(a, b)))
    assert err < 1e-10, f"{name}: {err}"
    return stats, err


def main() -> None:
    print(banner("SYR2K extension: C += A B^T + B A^T with triangle blocks"))
    k = syr2k_triangle_side_for_memory(S)
    t = syr2k_square_tile_side(S)
    print(f"\nS = {S}: triangle side k = {k} (k(k+3)/2 <= S), square tile t = {t} (t^2+4t <= S)")
    print(f"problem: C (lower {N}x{N}) += A B^T + B A^T, A and B {N}x{M}\n")

    a = random_tall_matrix(N, M, seed=11)
    b = random_tall_matrix(N, M, seed=12)
    tb, err1 = run(tbs_syr2k, "TB-SYR2K", a, b)
    oc, err2 = run(ooc_syr2k, "square-tile SYR2K", a, b)
    lb = syr2k_lower_bound(N, M, S, form="exact")

    table = Table(["schedule", "Q = loads", "stream traffic", "verified"])
    table.add_row(["extended lower bound", f"{lb:,.0f}", "-", "-"])
    c_pass = N * (N + 1) // 2
    table.add_row(["TB-SYR2K (extension)", format_int(tb.loads), format_int(tb.loads - c_pass), f"{err1:.1e}"])
    table.add_row(["square-tile baseline", format_int(oc.loads), format_int(oc.loads - c_pass), f"{err2:.1e}"])
    print(table.render())

    ratio = (oc.loads - c_pass) / (tb.loads - c_pass)
    print(
        f"\nstream-traffic ratio = {ratio:.3f} (finite-S target (k-1)/t = {(k - 1) / t:.3f};"
        f" -> sqrt(2) as S grows — see benchmarks/bench_e10_syr2k.py)"
    )


if __name__ == "__main__":
    main()
