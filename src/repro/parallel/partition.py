"""Distributing the SYRK result matrix among P nodes.

A :class:`NodeAssignment` maps each node to a list of :class:`BlockSpec`s —
disjoint pieces of the lower triangle of ``C`` whose union over all nodes is
exactly the full lower triangle (validated exhaustively in tests).  Two
strategies:

* :func:`square_tile_assignment` — the classical 2D decomposition: the tile
  grid of side ``s`` is dealt round-robin (by zig-zag area order, for
  balance) to nodes; diagonal tiles are lower-triangle pieces;
* :func:`triangle_block_assignment` — the paper's device distributed: the
  ``c^2`` triangle blocks of a TBS partition are dealt round-robin, the
  diagonal zones are recursively partitioned the same way, and the strip
  falls back to square tiles.

Both keep every block small enough for a fast memory of ``S`` on the node
(square: ``s^2 + 2s <= S``; triangle: ``k(k+1)/2 <= S``), so each node's
share runs as a legal two-level schedule in
:func:`~repro.parallel.simulate.simulate_syrk`, the one engine for these
fixed strategies (the DAG executor of :mod:`repro.parallel.executor`
partitions recorded schedules instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..config import square_tile_side_for_memory, triangle_side_for_memory
from ..errors import ConfigurationError
from ..core.partition import plan_partition
from ..utils.checks import check_positive
from ..utils.intervals import split_indices


@dataclass(frozen=True)
class BlockSpec:
    """One piece of the lower triangle assigned to a node.

    ``kind``:
      * ``"rect"``     — full rectangle ``rows_i x rows_j`` (disjoint row sets,
        every pair subdiagonal);
      * ``"diag"``     — lower triangle (incl. diagonal) over ``rows_i``;
      * ``"triangle"`` — strict subdiagonal pairs ``TB(rows_i)`` (scattered).
    """

    kind: str
    rows_i: tuple[int, ...]
    rows_j: tuple[int, ...] = ()

    def pairs(self) -> set[tuple[int, int]]:
        """The (i, j) elements of C this block covers (i >= j)."""
        if self.kind == "rect":
            return {(i, j) for i in self.rows_i for j in self.rows_j}
        if self.kind == "diag":
            rs = sorted(self.rows_i)
            return {(i, j) for a, i in enumerate(rs) for j in rs[: a + 1]}
        if self.kind == "triangle":
            rs = sorted(self.rows_i)
            return {(i, j) for a, i in enumerate(rs) for j in rs[:a]}
        raise ConfigurationError(f"unknown block kind {self.kind!r}")

    def n_pairs(self) -> int:
        ni = len(self.rows_i)
        if self.kind == "rect":
            return ni * len(self.rows_j)
        if self.kind == "diag":
            return ni * (ni + 1) // 2
        if self.kind == "triangle":
            return ni * (ni - 1) // 2
        raise ConfigurationError(f"unknown block kind {self.kind!r}")


@dataclass
class NodeAssignment:
    """Blocks per node, plus the problem geometry."""

    n: int
    p: int
    s: int
    strategy: str
    blocks: list[list[BlockSpec]] = field(default_factory=list)

    def node_pair_counts(self) -> list[int]:
        """Computation balance: number of C pairs per node."""
        return [sum(b.n_pairs() for b in node) for node in self.blocks]

    def validate_exact_cover(self) -> bool:
        """Union over nodes == full lower triangle (incl. diagonal), no overlap."""
        seen: set[tuple[int, int]] = set()
        for node in self.blocks:
            for block in node:
                ps = block.pairs()
                if seen & ps:
                    return False
                seen |= ps
        want = {(i, j) for i in range(self.n) for j in range(i + 1)}
        return seen == want


def balance_cap(total: int, p: int, slack: float) -> int:
    """The largest integer load within ``slack * total / p`` — exactly.

    Per-node loads are integers, so a load cap is only meaningful as the
    integer floor of the real bound ``slack * total / p``.  Evaluating that
    bound in floating point can round *below* the true value (e.g.
    ``total = 2**53 + 1`` loses its last bit before the division), which
    made a slack of 1.0 spuriously reject exact-balance placements.  ``Fraction`` keeps the comparison exact: an integer load
    ``x`` satisfies ``x <= slack * total / p`` iff
    ``x <= balance_cap(total, p, slack)``.  The float ``slack`` is snapped
    to the simplest nearby rational (``limit_denominator``), so a nominal
    ``1.2`` means exactly ``6/5`` rather than the float one ulp below it.
    """
    check_positive("p", p)
    if slack < 0:
        raise ConfigurationError(f"slack must be >= 0, got {slack}")
    return int(Fraction(slack).limit_denominator(10**6) * total / p)


def deal_least_loaded(
    weights: "list[int]",
    p: int,
    start: int = 0,
    loads: "list[int] | None" = None,
) -> list[int]:
    """Greedy load balancing: assign each item to the least-loaded node.

    Items are taken largest-weight-first; ties on load are broken
    round-robin from ``start``, so equally-loaded nodes fill in rotating
    order ``start, start+1, ...`` rather than always from node 0.  (The
    ``start`` offset used to be accepted and silently ignored by ``_deal``,
    and the low-index bias meant that when ``p`` does not divide the item
    count the surplus items all piled onto the first nodes.)  Largest-first
    greedy keeps the per-node load spread within one item of the mean for
    uniform weights.

    ``loads`` carries running per-node loads across calls (mutated in
    place) — the DAG executor's level-greedy partitioner deals one
    antichain level at a time against fleet-wide totals.  Returns the
    target node of every item, in input order.
    """
    check_positive("p", p)
    if loads is None:
        loads = [0] * p
    targets = [0] * len(weights)
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    for r, i in enumerate(order):
        target = min(range(p), key=lambda q: (loads[q], (q - start - r) % p))
        targets[i] = target
        loads[target] += weights[i]
    return targets


def _deal(items: list[BlockSpec], p: int, start: int = 0) -> list[list[BlockSpec]]:
    """Deal blocks to nodes via :func:`deal_least_loaded` on pair counts."""
    targets = deal_least_loaded([b.n_pairs() for b in items], p, start)
    nodes: list[list[BlockSpec]] = [[] for _ in range(p)]
    for block, target in zip(items, targets):
        nodes[target].append(block)
    return nodes


def square_tile_assignment(n: int, p: int, s: int) -> NodeAssignment:
    """2D decomposition: square ``s``-tiles (from memory ``S``) dealt to nodes."""
    check_positive("n", n)
    check_positive("p", p)
    tile = square_tile_side_for_memory(s)
    row_blocks = split_indices(np.arange(n), tile)
    items: list[BlockSpec] = []
    for bi, ri in enumerate(row_blocks):
        items.append(BlockSpec("diag", tuple(int(r) for r in ri)))
        for rj in row_blocks[:bi]:
            items.append(BlockSpec("rect", tuple(int(r) for r in ri), tuple(int(r) for r in rj)))
    out = NodeAssignment(n=n, p=p, s=s, strategy="square", blocks=_deal(items, p))
    return out


def triangle_block_assignment(n: int, p: int, s: int) -> NodeAssignment:
    """Triangle-block decomposition: TBS partition blocks dealt to nodes.

    Follows Algorithm 4's geometry: triangle blocks over the square zones,
    recursion into the diagonal zones, square tiles for strips/fallbacks.
    """
    check_positive("n", n)
    check_positive("p", p)
    k = triangle_side_for_memory(s)
    items: list[BlockSpec] = []

    def recurse(rows: np.ndarray) -> None:
        part = plan_partition(rows.size, k) if rows.size else None
        if part is None:
            _square_items(rows)
            return
        ck = part.covered
        if part.leftover:
            _strip_items(rows[ck:], rows[:ck])
        for u in range(k):
            recurse(rows[part.group(u)])
        for (_ij, local) in part.iter_blocks():
            items.append(BlockSpec("triangle", tuple(int(r) for r in rows[local])))

    def _square_items(rows: np.ndarray) -> None:
        tile = square_tile_side_for_memory(s)
        row_blocks = split_indices(rows, tile)
        for bi, ri in enumerate(row_blocks):
            items.append(BlockSpec("diag", tuple(int(r) for r in ri)))
            for rj in row_blocks[:bi]:
                items.append(BlockSpec("rect", tuple(int(r) for r in ri), tuple(int(r) for r in rj)))

    def _strip_items(strip: np.ndarray, prior: np.ndarray) -> None:
        tile = square_tile_side_for_memory(s)
        for ri in split_indices(strip, tile):
            for rj in split_indices(prior, tile):
                items.append(BlockSpec("rect", tuple(int(r) for r in ri), tuple(int(r) for r in rj)))
        _square_items(strip)

    recurse(np.arange(n))
    return NodeAssignment(n=n, p=p, s=s, strategy="triangle", blocks=_deal(items, p))
