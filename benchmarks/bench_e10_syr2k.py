"""E10 — extension: triangle-block SYR2K (the conclusion's future work).

Not a paper experiment: this regenerates the paper's *prediction* that the
triangle-block idea extends "to other kernels which use the same input
several times".  We carry the construction through for the symmetric
rank-2k update and measure the same sqrt(2) story:

* triangle-block SYR2K beats the square-tile baseline by (k-1)/t -> sqrt(2);
* measured == exact model; volumes respect the extended lower bound
  sqrt(2) N^2 M / sqrt(S);
* numerics verified by the numeric machine (in the test suite).
"""

import math

import pytest

from repro.analysis.model import ooc_syr2k_model, tbs_syr2k_model
from repro.core.syr2k import (
    syr2k_lower_bound,
    syr2k_square_tile_side,
    syr2k_triangle_side_for_memory,
)
from repro.utils.fmt import Table, format_int
from conftest import counting_machine

S = 14  # k = 4, t = 2
M_COLS = 8
NS = [40, 80, 160]


def run_measured():
    from repro.core.syr2k import ooc_syr2k, tbs_syr2k

    rows = []
    for n in NS:
        m = counting_machine(S, {"A": (n, M_COLS), "B": (n, M_COLS), "C": (n, n)})
        t = tbs_syr2k(m, "A", "B", "C", range(n), range(M_COLS))
        m.assert_empty()
        m2 = counting_machine(S, {"A": (n, M_COLS), "B": (n, M_COLS), "C": (n, n)})
        o = ooc_syr2k(m2, "A", "B", "C", range(n), range(M_COLS))
        m2.assert_empty()
        rows.append((n, t, o))
    return rows


@pytest.mark.benchmark(group="e10")
def test_e10_syr2k_extension(once):
    rows = once(run_measured)
    k = syr2k_triangle_side_for_memory(S)
    tile = syr2k_square_tile_side(S)

    t = Table(
        ["N", "lower bnd", "Q TB-SYR2K", "Q square-tile", "stream ratio", "== models"],
        title=f"E10: SYR2K at S={S} (k={k}, t={tile}), M={M_COLS}",
    )
    for n, tb, oc in rows:
        lb = syr2k_lower_bound(n, M_COLS, S, form="exact")
        c_pass = n * (n + 1) // 2
        ratio = (oc.loads - c_pass) / (tb.loads - c_pass)
        ok = (
            tb.loads == tbs_syr2k_model(n, M_COLS, S).loads
            and oc.loads == ooc_syr2k_model(n, M_COLS, S).loads
        )
        t.add_row([n, f"{lb:,.0f}", format_int(tb.loads), format_int(oc.loads), f"{ratio:.3f}", str(ok)])
        assert ok
        assert lb <= tb.loads <= oc.loads
    print()
    print(t.render())

    # model-extended: the sqrt(2) limit, as for SYRK (E2)
    s_big = 5050
    kk = syr2k_triangle_side_for_memory(s_big)
    tt = syr2k_square_tile_side(s_big)
    n_big, m_big = 150_000, 2
    c_pass = n_big * (n_big + 1) // 2
    tb_big = tbs_syr2k_model(n_big, m_big, s_big).loads - c_pass
    oc_big = ooc_syr2k_model(n_big, m_big, s_big).loads - c_pass
    ratio = oc_big / tb_big
    print(
        f"\nmodel-extended at S={s_big} (k={kk}, t={tt}), N={n_big:,}: "
        f"stream ratio = {ratio:.4f} (target (k-1)/t = {(kk - 1) / tt:.4f}, sqrt(2) = {math.sqrt(2):.4f})"
    )
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.05)
