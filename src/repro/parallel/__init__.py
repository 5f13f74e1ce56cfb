"""Parallel (P-node) model: the paper's suggested next step, §2.2 + conclusion.

The paper's machine-model discussion notes the equivalence it builds on:
"the two-level model can be used to study the volume of communication of a
single node in a parallel machine, since the set of all other nodes can be
viewed as a single 'slow' memory".  This subpackage takes that literally:

* a *node assignment* partitions the result matrix's lower triangle among
  ``P`` nodes — either by square tiles (the classical 2D approach) or by
  triangle blocks (the paper's device, distributed);
* each node then executes its share on its own two-level counting machine
  with fast memory ``S``, where every load is a network *receive*;
* the simulator (:func:`~repro.parallel.simulate.simulate_syrk`, the one
  engine for these fixed strategies) reports per-node receive volumes
  (max = the quantity parallel lower bounds govern, mean, imbalance), with
  the A/C split of every receive.

The conclusion's conjecture — that triangle blocks yield communication-
efficient *parallel* symmetric kernels — is reproduced as experiment E11:
the per-node maximum receive volume drops by the same ``(k-1)/s -> sqrt(2)``
factor as in the sequential model, at equal memory and balance.

Beyond the fixed SYRK strategies, :mod:`repro.parallel.executor` runs *any*
recorded schedule across ``p`` nodes: it partitions the schedule's task DAG
(level-greedy antichain dealing / greedy locality / owner-computes),
replays each shard on its own counting engine via per-shard sub-trace
slicing, and charges cross-shard RAW/reduction edges as explicit
node-to-node transfers — experiment E14 measures the result against the
per-node lower bounds in :mod:`repro.core.bounds`.

On top of the one-shot partitioners, :mod:`repro.parallel.refine` locally
*searches* the assignment space (single-op / reduction-class / write-group
moves, incremental ``max(recv + transfer_in)`` ledger, greedy and annealing
drivers) and never returns a partition measured worse than its seed, and
:mod:`repro.parallel.makespan` scores any ``(owner, order)`` pair with a
mults-weighted critical-path/latency model — experiment E16 measures both.

:mod:`repro.parallel.cosearch` closes the loop: instead of searching the
op *order* (``repro.graph.search``) and the op *ownership* (``refine``)
in separate silos, one annealing walk interleaves both move kinds through
a single :class:`~repro.parallel.cosearch.CoSearchState` — an exact-cover
partition ledger, a checkpointed :class:`~repro.parallel.makespan.
MakespanLedger` that re-times only the ops a move can touch, and per-node
LRU checkpoints that replay only the nodes whose program changed — under
one latency objective, and never returns a schedule measured
worse than the best seed of its {partitioner} x {order} portfolio.
Experiment E18 measures the joint walk against the decoupled pipelines.
"""

from .executor import (
    PARTITIONERS,
    POLICIES,
    ExecutorSummary,
    ShardReport,
    execute_graph,
    partition_graph,
)
from .cosearch import (
    CoSearchCost,
    CoSearchResult,
    CoSearchState,
    cosearch,
    cosearch_cost,
    cosearch_portfolio,
)
from .makespan import MakespanLedger, MakespanResult, makespan_model
from .partition import (
    BlockSpec,
    NodeAssignment,
    balance_cap,
    square_tile_assignment,
    triangle_block_assignment,
)
from .refine import (
    EVAL_POLICIES,
    REFINE_STRATEGIES,
    PartitionLedger,
    RefineResult,
    movable_units,
    partition_cost,
    refine_partition,
    refine_partitions,
    write_groups,
)
from .simulate import (
    NodeReport,
    ParallelSummary,
    simulate_syrk,
)

__all__ = [
    "BlockSpec",
    "NodeAssignment",
    "balance_cap",
    "square_tile_assignment",
    "triangle_block_assignment",
    "MakespanLedger",
    "MakespanResult",
    "makespan_model",
    "CoSearchCost",
    "CoSearchResult",
    "CoSearchState",
    "cosearch",
    "cosearch_cost",
    "cosearch_portfolio",
    "EVAL_POLICIES",
    "REFINE_STRATEGIES",
    "PartitionLedger",
    "RefineResult",
    "movable_units",
    "partition_cost",
    "refine_partition",
    "refine_partitions",
    "write_groups",
    "NodeReport",
    "ParallelSummary",
    "simulate_syrk",
    "PARTITIONERS",
    "POLICIES",
    "ExecutorSummary",
    "ShardReport",
    "execute_graph",
    "partition_graph",
]
