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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "COMMUTING_ACCUMULATIONS": "dependency",
    "DependencyGraph": "dependency",
    "dependency_graph": "dependency",
    "is_commuting_accumulation": "dependency",
    "BeladyReplayResult": "policies",
    "belady_replay": "policies",
    "replacement_gap": "policies",
    "RewriteResult": "rewriter",
    "reschedule": "rewriter",
    "rewrite_schedule": "rewriter",
    "rewrite_trace": "rewriter",
    "HEURISTICS": "scheduler",
    "ListScheduleResult": "scheduler",
    "Worklist": "scheduler",
    "list_schedule": "scheduler",
    "IncrementalObjective": "objective",
    "order_cost": "objective",
    "STRATEGIES": "search",
    "AnnealStats": "search",
    "SearchResult": "search",
    "anneal_search": "search",
    "beam_search": "search",
    "lookahead_search": "search",
    "run_chain": "search",
    "search_order": "search",
    "CASES": "compare",
    "Comparison": "compare",
    "ComparisonRow": "compare",
    "RecordedCase": "compare",
    "compare_case": "compare",
    "record_case": "compare",
})
