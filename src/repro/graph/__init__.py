"""Dependency-graph scheduling engine over recorded op streams.

This subsystem turns a flat recorded :class:`~repro.sched.schedule.Schedule`
into an optimization surface:

* :mod:`repro.graph.dependency` — extract the RAW/WAR/WAW partial order of
  the compute ops (commuting ``+=`` accumulations form relaxable reduction
  classes);
* :mod:`repro.graph.scheduler` — a worklist list scheduler with pluggable
  priority heuristics that emits alternative legal total orders, plus the
  reusable ready-frontier state the search engine builds on;
* :mod:`repro.graph.objective` — incremental I/O objectives: exact
  per-candidate miss counts from cache-coupled candidate proposal, and
  whole-order costs via trace reordering;
* :mod:`repro.graph.search` — the order-search engine: beam search,
  lookahead greedy and simulated annealing over reduction-class
  interleavings, behind ``python -m repro search`` and benchmark E15;
* :mod:`repro.graph.policies` — Belady/MIN optimal-replacement replay, the
  per-order I/O floor complementing :mod:`repro.analysis.lru_replay`;
* :mod:`repro.graph.rewriter` — regenerate explicit load/evict streams
  (load-on-demand, evict-by-furthest-next-use) for any legal order, validate
  them, and replay them with bit-identical numerics;
* :mod:`repro.graph.compare` — the record→analyze→reschedule harness behind
  ``python -m repro graph`` and benchmark E12.

The exposed task DAG is also the abstraction the parallel layer will build
on: its antichains are exactly the op sets a multi-node schedule may run
concurrently.
"""

from .dependency import (
    COMMUTING_ACCUMULATIONS,
    DependencyGraph,
    dependency_graph,
    is_commuting_accumulation,
)
from .policies import (
    BeladyReplayResult,
    belady_replay,
    replacement_gap,
)
from .rewriter import (
    RewriteResult,
    reschedule,
    rewrite_schedule,
    rewrite_trace,
)
from .scheduler import (
    HEURISTICS,
    ListScheduleResult,
    Worklist,
    list_schedule,
)
from .objective import IncrementalObjective, order_cost
from .search import (
    STRATEGIES,
    AnnealStats,
    SearchResult,
    anneal_search,
    beam_search,
    lookahead_search,
    run_chain,
    search_order,
)
from .compare import (
    CASES,
    Comparison,
    ComparisonRow,
    RecordedCase,
    compare_case,
    record_case,
)

__all__ = [
    "COMMUTING_ACCUMULATIONS",
    "DependencyGraph",
    "dependency_graph",
    "is_commuting_accumulation",
    "BeladyReplayResult",
    "belady_replay",
    "replacement_gap",
    "RewriteResult",
    "reschedule",
    "rewrite_schedule",
    "rewrite_trace",
    "HEURISTICS",
    "ListScheduleResult",
    "Worklist",
    "list_schedule",
    "IncrementalObjective",
    "order_cost",
    "STRATEGIES",
    "AnnealStats",
    "SearchResult",
    "anneal_search",
    "beam_search",
    "lookahead_search",
    "run_chain",
    "search_order",
    "CASES",
    "Comparison",
    "ComparisonRow",
    "RecordedCase",
    "compare_case",
    "record_case",
]
