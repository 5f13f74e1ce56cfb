"""Static conservation checks over a partitioned dependence graph.

``parallel.executor`` asserts these mid-replay (and only the one global
transfer symmetry); here the same invariants are *re-derived* from the
graph + owner map alone, so any executor summary — or any externally
produced tally — can be audited after the fact:

* **RPC101** transfer symmetry: every element sent is received, globally
  and per shard pair; a supplied per-shard tally must match the flows the
  cut actually implies.
* **RPC102** receives >= the distinct-footprint floor: a shard touching k
  distinct elements cannot have charged fewer than k loads (the §2.2
  loads-as-receives equivalence is a lower bound per shard).
* **RPC103** owner-computes exclusive writer: no element is written from
  two shards.
"""

from __future__ import annotations

from typing import Sequence

from ..graph.dependency import WRITE, DependencyGraph
from ..obs.probe import get_probe, timed
from .findings import Finding, sort_findings


def derived_transfer_totals(
    graph: DependencyGraph, owner: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Per-shard (transfer_in, transfer_out) element totals implied by the cut."""
    p = (max(owner) + 1) if len(owner) else 1
    into = [0] * p
    out = [0] * p
    for (src, dst), elems in graph.cut_transfers(owner).items():
        out[src] += len(elems)
        into[dst] += len(elems)
    return into, out


def check_conservation(
    graph: DependencyGraph,
    owner: Sequence[int],
    *,
    transfer_in: Sequence[int] | None = None,
    transfer_out: Sequence[int] | None = None,
    recv: Sequence[int] | None = None,
    exclusive_writer: bool = False,
) -> list[Finding]:
    """Audit reported tallies (or just the placement) against the graph.

    ``transfer_in``/``transfer_out``/``recv`` are optional per-shard
    tallies as an executor run reports them; omitted tallies skip their
    checks.  ``exclusive_writer=True`` additionally enforces the
    owner-computes single-writer discipline.
    """
    with timed("check.conservation"):
        findings = _check(
            graph,
            owner,
            transfer_in=transfer_in,
            transfer_out=transfer_out,
            recv=recv,
            exclusive_writer=exclusive_writer,
        )
    probe = get_probe()
    if probe.enabled:
        probe.count("check.conservation.runs")
        probe.count("check.conservation.findings", len(findings))
    return findings


def _check(
    graph: DependencyGraph,
    owner: Sequence[int],
    *,
    transfer_in: Sequence[int] | None,
    transfer_out: Sequence[int] | None,
    recv: Sequence[int] | None,
    exclusive_writer: bool,
) -> list[Finding]:
    findings: list[Finding] = []
    derived_in, derived_out = derived_transfer_totals(graph, owner)

    if transfer_in is not None and transfer_out is not None:
        total_in, total_out = sum(transfer_in), sum(transfer_out)
        if total_in != total_out:
            findings.append(
                Finding(
                    code="RPC101",
                    message=(
                        f"transfer accounting asymmetric: {total_in} received "
                        f"vs {total_out} sent"
                    ),
                    context={"received": total_in, "sent": total_out},
                )
            )
        for q, (rep_i, rep_o) in enumerate(zip(transfer_in, transfer_out)):
            if (int(rep_i), int(rep_o)) != (derived_in[q], derived_out[q]):
                findings.append(
                    Finding(
                        code="RPC101",
                        message=(
                            f"shard {q}: reported transfers in/out "
                            f"{int(rep_i)}/{int(rep_o)} != derived "
                            f"{derived_in[q]}/{derived_out[q]}"
                        ),
                        context={
                            "shard": q,
                            "reported": [int(rep_i), int(rep_o)],
                            "derived": [derived_in[q], derived_out[q]],
                        },
                    )
                )

    if recv is not None:
        p = len(recv)
        touched: list[set[int]] = [set() for _ in range(p)]
        for v, elems in enumerate(graph.op_elements.rows()):
            touched[owner[v]].update(elems)
        for q in range(p):
            floor = len(touched[q])
            if int(recv[q]) < floor:
                findings.append(
                    Finding(
                        code="RPC102",
                        message=(
                            f"shard {q}: {int(recv[q])} receives charged below "
                            f"its distinct-footprint floor {floor}"
                        ),
                        context={"shard": q, "recv": int(recv[q]), "floor": floor},
                    )
                )

    if exclusive_writer:
        writers: dict[int, int] = {}
        shared: dict[int, set[int]] = {}
        records = graph.op_elements
        for v, elems in enumerate(records.rows((records.bits & WRITE) != 0)):
            q = owner[v]
            for key in elems:
                prev = writers.setdefault(key, q)
                if prev != q:
                    shared.setdefault(key, {prev}).add(q)
        if shared:
            key, shards = next(iter(sorted(shared.items())))
            findings.append(
                Finding(
                    code="RPC103",
                    message=(
                        f"{len(shared)} element(s) written from multiple "
                        f"shards under owner-computes (e.g. element {key} "
                        f"from shards {sorted(shards)})"
                    ),
                    context={
                        "elements": len(shared),
                        "example": [int(key), sorted(shards)],
                    },
                )
            )

    return sort_findings(findings)


def check_summary(graph: DependencyGraph, summary, *, exclusive_writer: bool | None = None) -> list[Finding]:
    """Audit a :class:`~repro.parallel.executor.ExecutorSummary` statically."""
    owner = list(summary.owner)
    if exclusive_writer is None:
        exclusive_writer = getattr(summary, "partitioner", "") == "owner-computes"
    return check_conservation(
        graph,
        owner,
        transfer_in=[s.transfer_in for s in summary.shards],
        transfer_out=[s.transfer_out for s in summary.shards],
        recv=[s.recv for s in summary.shards],
        exclusive_writer=exclusive_writer,
    )
