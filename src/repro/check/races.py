"""Cross-shard race detection via vector clocks over the dependence DAG.

Given a dependency graph, an ``owner`` map (op -> shard) and an execution
order, :func:`check_races` rebuilds the happens-before relation a real
p-node execution would have:

* **program order** — ops on the same shard execute in their order
  positions, so consecutive same-shard ops are ordered;
* **transfer edges** — every cross-shard *data-carrying* edge (RAW always;
  reduction edges unless ``relax_reductions``) implies a send/receive
  pair, which synchronizes the two shards.

Each op gets a vector clock over the p shards (the classic FastTrack-style
construction, vectorized per op): the clock joins the previous same-shard
op's clock with every synchronizing predecessor's, then ticks its own
shard component.  ``u`` happened-before ``v`` iff ``VC[v][owner[u]] >=
tick(u)``.  Any dependence pair left unordered under that relation is a
race:

* same-shard (or any) edge whose endpoints appear inverted in the
  execution order                                      -> RPR101
* cross-shard RAW pair not covered by a transfer        -> RPR102
* cross-shard WAR / WAW pair with no ordering path      -> RPR103 / RPR104
* two members of one commuting-reduction class placed on different shards
  with no ordering either way under ``relax_reductions`` -> RPR105
  (the partial sums can never be combined deterministically)

By default the transfer set is derived from the graph itself (every
cross-shard data edge is assumed shipped, which is exactly what
``parallel.executor`` charges); pass an explicit ``transfers`` list to
audit a concrete transfer plan — a dropped transfer then surfaces as the
RPR102 it causes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..graph.dependency import KIND_NAMES, RAW, REDUCTION, DependencyGraph
from ..obs.probe import get_probe, timed
from .findings import Finding, sort_findings


def check_races(
    graph: DependencyGraph,
    owner: Sequence[int],
    *,
    order: Sequence[int] | None = None,
    relax_reductions: bool = False,
    transfers: Iterable[tuple[int, int]] | None = None,
) -> list[Finding]:
    """Flag every dependence pair the (order, owner) placement leaves unordered."""
    with timed("check.races"):
        findings = _check_races(
            graph,
            owner,
            order=order,
            relax_reductions=relax_reductions,
            transfers=transfers,
        )
    probe = get_probe()
    if probe.enabled:
        probe.count("check.races.runs")
        probe.count("check.races.findings", len(findings))
    return findings


def _check_races(
    graph: DependencyGraph,
    owner: Sequence[int],
    *,
    order: Sequence[int] | None,
    relax_reductions: bool,
    transfers: Iterable[tuple[int, int]] | None,
) -> list[Finding]:
    n = len(graph)
    if len(owner) != n:
        raise ValueError(f"owner has {len(owner)} entries for {n} ops")
    p = (max(owner) + 1) if n else 1

    if order is None:
        order = range(n)
    pos = np.empty(n, dtype=np.int64)
    pos[np.asarray(list(order), dtype=np.int64)] = np.arange(n, dtype=np.int64)

    findings: list[Finding] = []

    # 1. Execution order must respect every kept dependence edge (reduction
    #    edges are exempt only when relaxed).
    u, v, bits = graph.edge_arrays(relax_reductions=relax_reductions)
    inverted = pos[u] > pos[v]
    for a, b, k in zip(u[inverted].tolist(), v[inverted].tolist(), bits[inverted].tolist()):
        kinds = KIND_NAMES[k]
        findings.append(
            Finding(
                code="RPR101",
                message=(
                    f"op {b} ({graph.ops[b].name}) runs at position "
                    f"{int(pos[b])} before its {'/'.join(sorted(kinds))} "
                    f"predecessor op {a} at position {int(pos[a])}"
                ),
                op_index=b,
                context={
                    "pred": a,
                    "kinds": sorted(kinds),
                    "positions": [int(pos[a]), int(pos[b])],
                },
            )
        )

    # 2. Synchronization set: which predecessor edges carry data (and hence
    #    a transfer when cut).  An explicit transfer plan overrides the
    #    derived all-data-edges-shipped default for *cross-shard* pairs.
    sync_bits = RAW if relax_reductions else RAW | REDUCTION
    explicit = None if transfers is None else {(u, v) for u, v in transfers}

    # 3. Vector clocks, one sweep in execution order.
    clock = np.zeros((n, p), dtype=np.int64)
    tick_of = np.zeros(n, dtype=np.int64)
    shard_tick = [0] * p
    last_on_shard = [-1] * p
    pred_ptr, pred_idx, pred_bits = (a.tolist() for a in graph.pred)
    for v in np.argsort(pos, kind="stable").tolist():
        q = owner[v]
        prev = last_on_shard[q]
        vc = clock[prev].copy() if prev >= 0 else np.zeros(p, dtype=np.int64)
        for k in range(pred_ptr[v], pred_ptr[v + 1]):
            u = pred_idx[k]
            # A cross-shard data edge synchronizes when it is shipped.
            if (
                pos[u] < pos[v]
                and owner[u] != q
                and pred_bits[k] & sync_bits
                and (explicit is None or (u, v) in explicit)
            ):
                np.maximum(vc, clock[u], out=vc)
        shard_tick[q] += 1
        vc[q] = shard_tick[q]
        clock[v] = vc
        tick_of[v] = shard_tick[q]
        last_on_shard[q] = v

    def ordered(u: int, v: int) -> bool:
        """u happened-before v (assumes pos[u] < pos[v] was checked)."""
        return bool(clock[v, owner[u]] >= tick_of[u])

    # 4. Cross-shard dependence pairs must be covered by happens-before
    #    (same shard: program order; inverted: already RPR101; relaxed
    #    reduction-only pairs: per reduction class below).
    u, v, bits = graph.edge_arrays()
    n_edges = int(u.size)
    own = np.asarray(owner, dtype=np.int64)
    check = (own[u] != own[v]) & (pos[u] < pos[v])
    if relax_reductions:
        check &= bits != REDUCTION
    u, v, bits = u[check], v[check], bits[check]
    racy = clock[v, own[u]] < tick_of[u]
    race_code = {"raw": "RPR102", "war": "RPR103", "waw": "RPR104"}
    for a, b, k in zip(u[racy].tolist(), v[racy].tolist(), bits[racy].tolist()):
        for kind in ("raw", "war", "waw"):
            if kind in KIND_NAMES[k]:
                findings.append(
                    Finding(
                        code=race_code[kind],
                        message=(
                            f"cross-shard {kind.upper()} pair op {a} (shard "
                            f"{owner[a]}) -> op {b} (shard {owner[b]}) has no "
                            f"happens-before path"
                        ),
                        op_index=b,
                        context={"pred": a, "shards": [owner[a], owner[b]]},
                    )
                )

    # 5. Relaxed commuting reductions: a class split across shards is only
    #    legal if *some* ordering still combines the partial sums — i.e.
    #    every cross-shard member pair must be ordered one way or the other.
    if relax_reductions:
        for members in graph.reduction_classes():
            shards = {owner[u] for u in members}
            if len(shards) < 2:
                continue
            racy = None
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if owner[u] == owner[v]:
                        continue
                    a, b = (u, v) if pos[u] < pos[v] else (v, u)
                    if not ordered(a, b):
                        racy = (u, v)
                        break
                if racy:
                    break
            if racy:
                findings.append(
                    Finding(
                        code="RPR105",
                        message=(
                            f"commuting reduction class of {len(members)} ops "
                            f"split across shards {sorted(shards)} with "
                            f"unordered members (e.g. ops {racy[0]} and "
                            f"{racy[1]}) under relax_reductions"
                        ),
                        op_index=int(racy[1]),
                        context={
                            "class_size": len(members),
                            "shards": sorted(shards),
                            "example": [int(racy[0]), int(racy[1])],
                        },
                    )
                )

    probe = get_probe()
    if probe.enabled:
        probe.count("check.races.edges", n_edges)
    return sort_findings(findings)
