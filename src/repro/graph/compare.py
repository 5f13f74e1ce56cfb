"""Record→analyze→reschedule harness shared by the CLI, bench and tests.

One :class:`RecordedCase` bundles everything the graph layer needs to reason
about a kernel run: the schedule recorded on a counting machine, the
capacity it ran at, its explicit I/O volume, the relevant lower bound, a
factory for fresh numeric machines holding the *same* seeded input values
(for numeric replay checks), and the kernel's own results to compare
against, computed on first use.

:func:`compare_case` produces the full comparison for one case: explicit
volume, LRU and Belady replays of the original order, a validated,
numerically-checked rewrite per scheduling heuristic, and — when asked —
per search strategy (``search:beam`` / ``search:lookahead`` /
``search:anneal`` rows, each order found by :mod:`repro.graph.search` and
dressed into an explicit stream by the same rewriter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis.lru_replay import lru_replay
from ..baselines.ooc_chol import ooc_chol
from ..baselines.ooc_syrk import ooc_syrk
from ..core.bounds import cholesky_lower_bound, syrk_lower_bound
from ..core.syr2k import syr2k_lower_bound, tbs_syr2k
from ..core.tbs import tbs_syrk
from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..sched.schedule import Schedule, record_schedule, replay_schedule
from ..trace.compiled import CompiledTrace, compile_trace
from ..utils.rng import random_spd_matrix, random_tall_matrix
from .dependency import DependencyGraph
from .policies import belady_replay
from .rewriter import RewriteResult, reschedule, rewrite_schedule
from .scheduler import HEURISTICS
from .search import SearchResult, search_order

@dataclass(frozen=True)
class _Kernel:
    """How the harness runs one kernel of :data:`CASES`."""

    description: str
    shapes: Callable[[int, int], dict[str, tuple[int, int]]]
    inputs: Callable[[int, int, int], dict[str, np.ndarray]]  # (n, mcols, seed)
    run: Callable[[TwoLevelMachine, int, int], object]  # (machine, n, mcols)
    bound: Callable[[int, int, int], float]  # (n, mcols, s)
    results: tuple[str, ...]


def _syrk_shapes(n: int, mcols: int) -> dict[str, tuple[int, int]]:
    return {"A": (n, mcols), "C": (n, n)}


def _syrk_inputs(n: int, mcols: int, seed: int) -> dict[str, np.ndarray]:
    return {"A": random_tall_matrix(n, mcols, seed=seed), "C": np.zeros((n, n))}


def _syrk_bound(n: int, mcols: int, s: int) -> float:
    return syrk_lower_bound(n, mcols, s, form="exact")


#: The one kernel table: :func:`record_case` records each kernel from it on
#: a counting machine and runs it again, numerically, for the reference.
_KERNELS = {
    "tbs": _Kernel(
        "TBS SYRK (Algorithm 4)",
        _syrk_shapes, _syrk_inputs,
        lambda m, n, mcols: tbs_syrk(m, "A", "C", range(n), range(mcols)),
        _syrk_bound, ("C",),
    ),
    "ocs": _Kernel(
        "OOC_SYRK (Bereux square tiles)",
        _syrk_shapes, _syrk_inputs,
        lambda m, n, mcols: ooc_syrk(m, "A", "C", range(n), range(mcols)),
        _syrk_bound, ("C",),
    ),
    "syr2k": _Kernel(
        "TBS SYR2K extension",
        lambda n, mcols: {"A": (n, mcols), "B": (n, mcols), "C": (n, n)},
        lambda n, mcols, seed: {
            "A": random_tall_matrix(n, mcols, seed=seed),
            "B": random_tall_matrix(n, mcols, seed=seed + 1),
            "C": np.zeros((n, n)),
        },
        lambda m, n, mcols: tbs_syr2k(m, "A", "B", "C", range(n), range(mcols)),
        lambda n, mcols, s: syr2k_lower_bound(n, mcols, s, form="exact"),
        ("C",),
    ),
    "chol": _Kernel(
        "OOC_CHOL (left-looking Cholesky)",
        lambda n, mcols: {"A": (n, n)},
        lambda n, mcols, seed: {"A": random_spd_matrix(n, seed=seed)},
        lambda m, n, mcols: ooc_chol(m, "A", range(n)),
        lambda n, mcols, s: cholesky_lower_bound(n, s, form="exact"),
        ("A",),
    ),
}

#: Kernels the harness can record (name -> human description).
CASES = {name: kernel.description for name, kernel in _KERNELS.items()}


@dataclass
class RecordedCase:
    """A recorded kernel run plus everything needed to replay/compare it."""

    name: str
    schedule: Schedule
    capacity: int
    explicit_loads: int
    explicit_stores: int
    lower_bound: float
    make_machine: Callable[[], TwoLevelMachine]
    result_names: list[str]
    #: Runs the kernel itself on a machine from ``make_machine``.
    run: Callable[[TwoLevelMachine], object] = field(repr=False)
    _trace: CompiledTrace | None = None
    _reference: dict[str, np.ndarray] | None = field(default=None, repr=False)

    @property
    def trace(self) -> CompiledTrace:
        """The schedule's compiled trace IR (compiled once, lazily)."""
        if self._trace is None:
            self._trace = compile_trace(self.schedule)
        return self._trace

    @property
    def reference(self) -> dict[str, np.ndarray]:
        """The kernel's own results on a numeric machine (run once, lazily).

        The kernel runs again rather than the recorded schedule being
        replayed, so a step the recording lost would show up as a mismatch.
        """
        if self._reference is None:
            m = self.make_machine()
            self.run(m)
            m.assert_empty()
            self._reference = {r: m.result(r).copy() for r in self.result_names}
        return self._reference

    def check_exact(self, rewritten: Schedule) -> bool:
        """Replay ``rewritten`` on a fresh machine; results bit-identical?"""
        m = self.make_machine()
        replay_schedule(rewritten, m)
        m.assert_empty()
        return all(
            np.array_equal(m.result(name), self.reference[name])
            for name in self.result_names
        )


def record_case(name: str, n: int, mcols: int, s: int, seed: int = 0) -> RecordedCase:
    """Record one kernel's schedule on a counting machine.

    The recording machine is ``TwoLevelMachine(s, numerics=False)``:
    residency and capacity are checked on every step and I/O is counted,
    but no input is generated and no arithmetic runs.  Numerics wait
    until a caller asks: ``make_machine`` builds numeric machines holding
    the seeded inputs, and ``reference`` runs the kernel
    on one the first time it is read.  The serve path's misses record
    here and never ask.
    """
    kernel = _KERNELS.get(name)
    if kernel is None:
        raise ConfigurationError(f"unknown case {name!r}; choose from {', '.join(CASES)}")
    m = TwoLevelMachine(s, numerics=False)
    for matrix, shape in kernel.shapes(n, mcols).items():
        m.add_matrix(matrix, np.zeros(shape))
    schedule = record_schedule(m, lambda: kernel.run(m, n, mcols))
    m.assert_empty()

    def make_machine() -> TwoLevelMachine:
        fresh = TwoLevelMachine(s)
        for matrix, array in kernel.inputs(n, mcols, seed).items():
            fresh.add_matrix(matrix, array)
        return fresh

    return RecordedCase(
        name=name,
        schedule=schedule,
        capacity=s,
        explicit_loads=m.stats.loads,
        explicit_stores=m.stats.stores,
        lower_bound=kernel.bound(n, mcols, s),
        make_machine=make_machine,
        result_names=list(kernel.results),
        run=lambda machine: kernel.run(machine, n, mcols),
    )


def sweep_case(
    case: RecordedCase,
    capacities,
    *,
    policies: tuple[str, ...] = ("lru", "belady"),
    jobs: int = 1,
):
    """Replay one recorded case at many capacities under each policy.

    Returns ``{policy: [replay results, in capacity order]}`` via
    :func:`repro.trace.replay.sweep_replay_trace` — the one-pass engines
    (cached reuse distances for LRU, one grouped OPT stack pass for
    Belady), with ``jobs`` sharding the capacity list over worker
    processes.  The resource-augmentation harness behind
    ``python -m repro trace replay --capacity a,b,c`` and benchmark E17.
    """
    from ..trace.replay import sweep_replay_trace

    return {
        policy: sweep_replay_trace(case.trace, capacities, policy=policy, jobs=jobs)
        for policy in policies
    }


def searched_orders(
    graph: DependencyGraph,
    capacity: int,
    strategies: tuple[str, ...],
    *,
    relax_reductions: bool = False,
    search_kwargs: dict | None = None,
) -> "dict[str, SearchResult]":
    """Run each named search strategy; ``{"search:<name>": SearchResult}``.

    The labeled-order producer shared by :func:`compare_case` (which
    dresses each order into an explicit stream) and the joint co-search's
    seed portfolio (:mod:`repro.parallel.cosearch`, which pairs each order
    with every partitioner).  ``search_kwargs`` maps a strategy name to
    extra keyword arguments; ``relax_reductions`` is the per-strategy
    default, overridable per strategy through ``search_kwargs``.
    """
    found: dict[str, SearchResult] = {}
    for strategy in strategies:
        kwargs = dict((search_kwargs or {}).get(strategy, {}))
        kwargs.setdefault("relax_reductions", relax_reductions)
        found[f"search:{strategy}"] = search_order(graph, capacity, strategy, **kwargs)
    return found


@dataclass
class ComparisonRow:
    """One line of the E12 table: an order/policy pair and its volume."""

    label: str
    loads: int
    stores: int
    valid: bool | None = None   # None: not an explicit stream (pure replay)
    exact: bool | None = None   # None: numerics not applicable/checked


@dataclass
class Comparison:
    """Everything :func:`compare_case` measures for one recorded case."""

    case: RecordedCase
    graph: DependencyGraph
    rows: list[ComparisonRow] = field(default_factory=list)
    rewrites: dict[str, RewriteResult] = field(default_factory=dict)

    def row(self, label: str) -> ComparisonRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def compare_case(
    case: RecordedCase,
    heuristics: tuple[str, ...] = HEURISTICS,
    *,
    check_numerics: bool = True,
    search_strategies: tuple[str, ...] = (),
    relax_reductions: bool = False,
    search_kwargs: dict | None = None,
) -> Comparison:
    """Explicit vs LRU vs Belady vs rescheduled/searched volumes for one case.

    The schedule is compiled to the trace IR exactly once; the DAG
    extraction, both replays, every rewrite and every search consume the
    same :class:`~repro.trace.compiled.CompiledTrace`.  ``search_strategies``
    names strategies of :mod:`repro.graph.search` to run after the
    heuristics (rows ``search:<strategy>``); ``relax_reductions`` applies
    to the searches only (heuristic rows stay bit-exact), and relaxed
    search rows skip the bit-exactness check (results are then equal only
    up to FP reassociation — ``exact`` stays ``None``).  ``search_kwargs``
    maps a strategy name to extra keyword arguments for it.
    """
    trace = case.trace
    graph = DependencyGraph.from_trace(trace)
    comp = Comparison(case=case, graph=graph)
    comp.rows.append(
        ComparisonRow("explicit", case.explicit_loads, case.explicit_stores, valid=True, exact=True)
    )
    lru = lru_replay(trace, case.capacity)
    comp.rows.append(ComparisonRow("lru", lru.loads, lru.stores))
    opt = belady_replay(trace, case.capacity)
    comp.rows.append(ComparisonRow("belady", opt.loads, opt.stores))
    for heuristic in heuristics:
        rewrite = reschedule(trace, case.capacity, heuristic, graph=graph)
        exact = case.check_exact(rewrite.schedule) if check_numerics else None
        comp.rewrites[heuristic] = rewrite
        comp.rows.append(
            ComparisonRow(
                f"reschedule:{heuristic}",
                rewrite.loads,
                rewrite.stores,
                valid=True,  # reschedule() already ran validate_schedule
                exact=exact,
            )
        )
    for label, found in searched_orders(
        graph, case.capacity, tuple(search_strategies),
        relax_reductions=relax_reductions, search_kwargs=search_kwargs,
    ).items():
        rewrite = rewrite_schedule(
            trace, case.capacity, found.order, graph=graph,
            relax_reductions=found.relax_reductions,
        )
        rewrite.heuristic = label
        exact = (
            case.check_exact(rewrite.schedule)
            if check_numerics and not found.relax_reductions
            else None
        )
        comp.rewrites[label] = rewrite
        comp.rows.append(
            ComparisonRow(label, rewrite.loads, rewrite.stores, valid=True, exact=exact)
        )
    return comp
