"""Per-node simulation of distributed SYRK under a node assignment.

Each node executes its assigned blocks on its own two-level counting
machine (fast memory ``S``): hold the block's C piece, stream the needed
``A`` segments column by column — every load is a *receive* from the rest
of the machine (the "slow memory" of §2.2's equivalence).  The result-matrix
traffic is counted separately and in both directions: each C element is
received (``c_recv``) and sent back (``c_send``, the writeback eviction)
exactly once by whichever node owns it, so total communication volume is
recv- and send-complete.

The quantity of interest is the **maximum per-node receive volume** —
parallel lower bounds (Irony et al., Kwasniewski et al., quoted in §2.2)
bound exactly this — together with balance statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..sched.ops import OuterColsUpdate, TriangleUpdate
from .partition import BlockSpec, NodeAssignment


def fleet_mean(values: "list[int]") -> float:
    """Mean over nodes; an empty fleet averages to 0.0 instead of raising."""
    return sum(values) / len(values) if values else 0.0


def fleet_imbalance(values: "list[int]") -> float:
    """max / mean over nodes (1.0 = perfect balance).

    The single source of the idle-fleet convention shared by
    :class:`ParallelSummary` and the executor's summary: an empty or
    all-zero fleet is perfectly balanced by definition, so those cases
    return exactly 1.0.
    """
    mean = fleet_mean(values)
    if not mean:
        return 1.0
    return max(values) / mean


@dataclass(frozen=True)
class NodeReport:
    """Communication/work accounting for one node."""

    node: int
    n_blocks: int
    a_recv: int          # A elements received (streamed operands)
    c_recv: int          # C elements received (owned output pieces)
    mults: int
    peak_memory: int
    c_send: int = 0      # C elements sent back (writeback evictions)

    @property
    def total_recv(self) -> int:
        return self.a_recv + self.c_recv

    @property
    def total_comm(self) -> int:
        """Both directions: receives plus result elements sent back."""
        return self.total_recv + self.c_send


@dataclass(frozen=True)
class ParallelSummary:
    """Fleet-level summary of a simulated distributed SYRK.

    All statistics are total functions: an empty node list (or a fleet of
    idle nodes) yields the neutral values ``0`` / ``0.0`` / ``1.0`` rather
    than raising, so degenerate assignments (``p`` larger than the block
    count, zero-work shards) summarize cleanly.
    """

    strategy: str
    n: int
    m: int
    p: int
    s: int
    nodes: tuple[NodeReport, ...]

    @property
    def max_recv(self) -> int:
        return max((r.total_recv for r in self.nodes), default=0)

    @property
    def max_a_recv(self) -> int:
        return max((r.a_recv for r in self.nodes), default=0)

    @property
    def max_send(self) -> int:
        return max((r.c_send for r in self.nodes), default=0)

    @property
    def mean_recv(self) -> float:
        return fleet_mean([r.total_recv for r in self.nodes])

    @property
    def compute_imbalance(self) -> float:
        """max mults / mean mults (1.0 = perfect balance, idle fleets too)."""
        return fleet_imbalance([r.mults for r in self.nodes])

    @property
    def total_mults(self) -> int:
        return sum(r.mults for r in self.nodes)

    @property
    def total_c_send(self) -> int:
        return sum(r.c_send for r in self.nodes)


def _run_block(m: TwoLevelMachine, block: BlockSpec, mcols: int) -> None:
    if block.kind == "triangle":
        rows = np.array(sorted(block.rows_i), dtype=np.int64)
        region = m.triangle_block("C", rows)
        m.load(region)
        for k in range(mcols):
            seg = m.column_segment("A", rows, k)
            m.load(seg)
            m.compute(TriangleUpdate(m, "C", "A", rows, k))
            m.evict(seg)
        m.evict(region, writeback=True)
    elif block.kind == "diag":
        rows = np.array(sorted(block.rows_i), dtype=np.int64)
        region = m.lower_tile("C", rows)
        m.load(region)
        for k in range(mcols):
            seg = m.column_segment("A", rows, k)
            m.load(seg)
            m.compute(TriangleUpdate(m, "C", "A", rows, k, include_diagonal=True))
            m.evict(seg)
        m.evict(region, writeback=True)
    elif block.kind == "rect":
        ri = np.array(sorted(block.rows_i), dtype=np.int64)
        rj = np.array(sorted(block.rows_j), dtype=np.int64)
        region = m.tile("C", ri, rj)
        m.load(region)
        for k in range(mcols):
            si = m.column_segment("A", ri, k)
            sj = m.column_segment("A", rj, k)
            m.load(si)
            m.load(sj)
            m.compute(OuterColsUpdate(m, "C", "A", "A", ri, rj, k, k))
            m.evict(si)
            m.evict(sj)
        m.evict(region, writeback=True)
    else:  # pragma: no cover - defensive
        raise ConfigurationError(f"unknown block kind {block.kind!r}")


def simulate_syrk(assignment: NodeAssignment, mcols: int) -> ParallelSummary:
    """Run every node's share on its own counting machine; summarize.

    Each node's machine registers the full (zero) matrices purely for shape
    — loads are counted per node, and the per-node peak occupancy proves
    the schedule respects the node memory ``S``.
    """
    if mcols < 1:
        raise ConfigurationError(f"mcols must be >= 1, got {mcols}")
    n = assignment.n
    reports = []
    for node_id, blocks in enumerate(assignment.blocks):
        m = TwoLevelMachine(assignment.s, numerics=False)
        m.add_matrix("A", np.zeros((n, mcols)))
        m.add_matrix("C", np.zeros((n, n)))
        for block in blocks:
            _run_block(m, block, mcols)
        m.assert_empty()
        reports.append(
            NodeReport(
                node=node_id,
                n_blocks=len(blocks),
                a_recv=int(m.stats.loads_by_matrix.get("A", 0)),
                c_recv=int(m.stats.loads_by_matrix.get("C", 0)),
                mults=int(m.stats.mults),
                peak_memory=int(m.stats.peak_occupancy),
                c_send=int(m.stats.stores_by_matrix.get("C", 0)),
            )
        )
    return ParallelSummary(
        strategy=assignment.strategy,
        n=n,
        m=mcols,
        p=assignment.p,
        s=assignment.s,
        nodes=tuple(reports),
    )
