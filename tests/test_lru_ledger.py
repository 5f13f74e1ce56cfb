"""The per-node LRU ledger (repro.trace.replay.LruLedger).

The ledger keeps each op's committed load and no cache state.  It scores a
candidate ``(order, owner)`` pair by replaying only the nodes whose program
changed, each from the recency list read backwards off its last ``S``
distinct elements before ``from_pos``, and stops each once its accesses
from ``settled`` on cover ``S`` distinct elements.  These tests pin both
shortcuts to ground truth:

* after every :meth:`~LruLedger.score`, the per-node loads equal a cold
  array-engine replay of each node's order-induced sub-trace, at
  capacities from 1 to one above the trace's distinct elements (where the
  stop rule never fires);
* after every :meth:`~LruLedger.commit`, the per-op and per-node loads
  equal a fresh ledger's built on the committed pair;
* the stop rule actually fires: a swap of two adjacent ops in the middle
  of a long order replays the window and one more op, not the suffix;
  and it waits for ``S`` distinct elements, not one fewer;
* a score replays only the nodes whose program changed: an owner move its
  source and destination, a move that changes no program no op at all;
* the committed owner list is held by reference, so a caller may edit it
  in place into the candidate between a score and its commit.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.search import propose_segment_move, reduction_class_of
from repro.parallel.cosearch import changed_programs
from repro.trace.compiled import CompiledTrace
from repro.trace.replay import LruCursor, LruLedger, lru_replay_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

S = 15
_GRAPHS: dict = {}


def graph_of(kernel: str, n: int, mc: int) -> DependencyGraph:
    key = (kernel, n, mc)
    if key not in _GRAPHS:
        _GRAPHS[key] = DependencyGraph.from_trace(record_case(kernel, n, mc, S).trace)
    return _GRAPHS[key]


def measured_loads(trace, order, owner, p, s=S) -> list[int]:
    """Cold per-node LRU loads of the pair: the ground truth."""
    shard_seq: list[list[int]] = [[] for _ in range(p)]
    for v in order:
        shard_seq[0 if owner is None else owner[v]].append(v)
    return [
        lru_replay_trace(trace.select_ops(seq), s).loads if seq else 0
        for seq in shard_seq
    ]


def owner_move(order, owner, graph, p, rng):
    """A random ownership move: ``(candidate owner, from_pos, settled)``.

    Half the moves reassign a whole reduction class, whose ops lie far
    apart in the order, so the replayed span holds other nodes' ops.
    """
    classes = graph.reduction_classes()
    if classes and rng.random() < 0.5:
        group = classes[rng.randrange(len(classes))]
    else:
        group = [rng.randrange(len(order))]
    cand = list(owner)
    for v in group:
        cand[v] = rng.randrange(p)
    pos = {v: i for i, v in enumerate(order)}
    positions = [pos[v] for v in group]
    return cand, min(positions), max(positions) + 1


def walk(kernel, n, mc, p, seed, s=S, steps=60, per_node=False):
    """A random walk of order and owner moves, checked against cold
    replays.  ``per_node`` names the changed nodes as co-search does;
    ``None`` picks per proposal.  For p >= 2 the start leaves node
    ``p - 1`` idle, and owner moves may give it ops."""
    graph = graph_of(kernel, n, mc)
    trace = graph.trace
    rng = random.Random(seed)
    order = list(range(len(graph)))
    owner = None if p == 1 else [rng.randrange(p - 1) for _ in order]
    ledger = LruLedger(trace, s, order, owner, p=p)
    assert ledger.loads == measured_loads(trace, order, owner, p, s)
    class_of = reduction_class_of(graph)
    commits = 0
    for _ in range(steps):
        if p == 1 or rng.random() < 0.5:
            i, j, segment = propose_segment_move(order, class_of, rng)
            cand_order, cand_owner = order[:i] + segment + order[j:], owner
            nodes = changed_programs(order[i:j], segment, owner or [0] * len(order))
        else:
            cand_owner, i, j = owner_move(order, owner, graph, p, rng)
            cand_order = order
            nodes = {q for v in order[i:j] for q in (owner[v], cand_owner[v])
                     if owner[v] != cand_owner[v]}
        named = rng.random() < 0.5 if per_node is None else per_node
        loads = ledger.score(
            cand_order, cand_owner, from_pos=i, settled=j,
            nodes=nodes if named else None,
        )
        assert loads == measured_loads(trace, cand_order, cand_owner, p, s)
        if rng.random() < 0.5:
            ledger.commit()
            commits += 1
            order, owner = cand_order, cand_owner
            fresh = LruLedger(trace, s, order, owner, p=p)
            assert ledger.op_loads == fresh.op_loads
            assert ledger.loads == fresh.loads
    assert commits > 0


@pytest.mark.parametrize("s", [None, 3])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kernel,n,mc", [("tbs", 20, 3), ("chol", 12, 0)])
def test_score_and_commit_match_cold_replay(kernel, n, mc, p, s):
    """Every node replayed on every score; ``s=None`` is the module's S."""
    for seed in range(3):
        walk(kernel, n, mc, p, 1000 * p + seed, s or S)


@pytest.mark.parametrize("s", [None, 2])
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("kernel,n,mc", [("tbs", 20, 3), ("chol", 12, 0)])
def test_per_node_scores_match_cold_replay(kernel, n, mc, p, s):
    for seed in range(3):
        walk(kernel, n, mc, p, 7000 * p + seed, s or S, per_node=True)


def capacities(kernel, n, mc) -> list[int]:
    """1, 2, S and one above the trace's distinct elements, where no
    replay ever meets the stop rule."""
    return [1, 2, S, graph_of(kernel, n, mc).trace.n_elements + 1]


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kernel,n,mc", [("tbs", 16, 3), ("chol", 12, 0)])
def test_walks_match_cold_replay_at_every_capacity(kernel, n, mc, p):
    for k, s in enumerate(capacities(kernel, n, mc)):
        walk(kernel, n, mc, p, 300 * p + k, s, steps=40, per_node=None)


if HAVE_HYPOTHESIS:

    @settings(max_examples=12, deadline=None)
    @given(
        kernel=st.sampled_from(["tbs", "chol"]),
        p=st.sampled_from([1, 2, 4]),
        k=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_walks_match_cold_replay_hypothesis(kernel, p, k, seed):
        n, mc = (16, 3) if kernel == "tbs" else (12, 0)
        s = capacities(kernel, n, mc)[k]
        walk(kernel, n, mc, p, seed, s, steps=25, per_node=None)


def applied_ops(monkeypatch) -> list[int]:
    """Record the op of every cursor ``apply_op`` from here on."""
    applied: list[int] = []
    apply_op = LruCursor.apply_op

    def recording(self, i):
        applied.append(i)
        return apply_op(self, i)

    monkeypatch.setattr(LruCursor, "apply_op", recording)
    return applied


def test_owner_move_replays_only_its_source_and_destination(monkeypatch):
    graph = graph_of("tbs", 20, 3)
    trace, n, p = graph.trace, len(graph), 4
    rng = random.Random(3)
    order = list(range(n))
    owner = [rng.randrange(p) for _ in order]
    ledger = LruLedger(trace, S, order, owner, p=p)
    applied = applied_ops(monkeypatch)
    v = n // 2
    src, dst = owner[v], (owner[v] + 1) % p
    cand = list(owner)
    cand[v] = dst
    loads = ledger.score(order, cand, from_pos=v, settled=v + 1, nodes={src, dst})
    assert loads == measured_loads(trace, order, cand, p)
    assert {cand[u] for u in applied} == {src, dst}
    assert ledger.work == len(applied)
    ledger.commit()
    fresh = LruLedger(trace, S, order, cand, p=p)
    assert (ledger.op_loads, ledger.loads) == (fresh.op_loads, fresh.loads)


def test_neutral_move_replays_no_op(monkeypatch):
    graph = graph_of("tbs", 20, 3)
    trace, n, p = graph.trace, len(graph), 2
    order = list(range(n))
    owner = [v % p for v in order]
    ledger = LruLedger(trace, S, order, owner, p=p)
    applied = applied_ops(monkeypatch)
    i = n // 2  # order[i] and order[i + 1] sit on different nodes
    cand = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
    assert not changed_programs(order[i : i + 2], cand[i : i + 2], owner)
    assert ledger.score(cand, owner, from_pos=i, settled=i + 2, nodes=()) == ledger.loads
    assert not applied and ledger.work == 0
    ledger.commit()
    fresh = LruLedger(trace, S, cand, owner, p=p)
    assert (ledger.op_loads, ledger.loads) == (fresh.op_loads, fresh.loads)
    # the commit adopted the order: a later move is costed against it
    j = i + 2
    later = cand[:j] + [cand[j + 1], cand[j]] + cand[j + 2 :]
    assert ledger.score(later, owner, from_pos=j, settled=j + 2) == measured_loads(
        trace, later, owner, p
    )


def test_rejected_score_leaves_committed_state():
    graph = graph_of("tbs", 20, 3)
    order = list(range(len(graph)))
    ledger = LruLedger(graph.trace, S, order)
    before = (list(ledger.op_loads), list(ledger.loads))
    ledger.score(order[::-1])
    assert (ledger.op_loads, ledger.loads) == before
    # a second score discards the first pending candidate
    ledger.score(order[::-1])
    ledger.score(order)
    assert ledger.commit() == before[1]
    assert ledger.op_loads == before[0]


def test_stop_rule_replays_the_window_and_a_few_ops():
    """A swap of two adjacent ops mid-order at tbs N=40: the op after the
    window touches S distinct elements, so the replay stops there."""
    graph = graph_of("tbs", 40, 6)
    trace, n = graph.trace, len(graph)
    order = list(range(n))
    ledger = LruLedger(trace, S, order)
    i = n // 2
    candidate = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
    loads = ledger.score(candidate, from_pos=i, settled=i + 2)
    assert loads == measured_loads(trace, candidate, None, 1)
    assert ledger.work == 3  # the window's two ops and one more
    # without the settled position the same candidate replays the suffix
    assert ledger.score(candidate, from_pos=i) == loads
    assert ledger.work == 3 + n - i


def hand_trace(ops: list[list[int]]) -> CompiledTrace:
    """A read-only trace of the given per-op element accesses."""
    n_elements = 1 + max(e for op in ops for e in op)
    ids = np.array([e for op in ops for e in op], dtype=np.int64)
    starts = np.cumsum([0] + [len(op) for op in ops]).astype(np.int64)
    return CompiledTrace(
        matrices=("M",), shapes={"M": (1, n_elements)},
        elem_ids=ids, is_write=np.zeros(len(ids), dtype=bool),
        op_starts=starts, op_read_ends=starts[1:].copy(),
        key_matrix=np.zeros(n_elements, dtype=np.int32),
        key_flat=np.arange(n_elements, dtype=np.int64), ops=None,
    )


def test_stop_rule_needs_capacity_distinct_elements():
    """Ops [a], [b], [x, y], [a] at capacity 3, the first two swapped.
    After [x, y] the caches hold x, y and one element from before the
    window, b in the committed replay and a in the candidate's, so the
    replay may not stop there: the last op hits only in the candidate."""
    a, b, x, y = range(4)
    trace = hand_trace([[a], [b], [x, y], [a]])
    ledger = LruLedger(trace, 3, [0, 1, 2, 3])
    assert ledger.loads == [5]
    candidate = [1, 0, 2, 3]
    assert ledger.score(candidate, from_pos=0, settled=2) == [4]
    assert measured_loads(trace, candidate, None, 1, 3) == [4]
    assert ledger.work == 4  # the stop comes after the last op


def test_committed_owner_edited_in_place_between_score_and_commit():
    """Co-search's partition ledger moves a group on the owner list the
    LRU ledger holds, after the score and before the commit."""
    graph = graph_of("chol", 12, 0)
    trace, n, p = graph.trace, len(graph), 3
    rng = random.Random(8)
    order = list(range(n))
    owner = [rng.randrange(p) for _ in order]
    ledger = LruLedger(trace, S, order, owner, p=p)
    for _ in range(40):
        cand, i, j = owner_move(order, owner, graph, p, rng)
        nodes = {q for v in order[i:j] for q in (owner[v], cand[v])}
        assert ledger.score(order, cand, from_pos=i, settled=j, nodes=nodes) == (
            measured_loads(trace, order, cand, p)
        )
        owner[:] = cand  # the caller's committed list, edited in place
        ledger.commit()
        fresh = LruLedger(trace, S, order, owner, p=p)
        assert (ledger.op_loads, ledger.loads) == (fresh.op_loads, fresh.loads)


def test_empty_order_and_bad_arguments():
    graph = graph_of("chol", 12, 0)
    empty = DependencyGraph.from_trace(graph.trace.select_ops([]))
    ledger = LruLedger(empty.trace, S, [])
    assert ledger.loads == [0] and ledger.op_loads == []
    assert ledger.score([]) == [0] and ledger.commit() == [0]
    order = list(range(len(graph)))
    with pytest.raises(ConfigurationError, match="capacity"):
        LruLedger(graph.trace, 0, order)
    with pytest.raises(ConfigurationError, match="entries"):
        LruLedger(graph.trace, S, order, [0] * (len(order) - 1))
    with pytest.raises(ConfigurationError, match=">= 0"):
        LruLedger(graph.trace, S, order, [-1] * len(order))
    with pytest.raises(ConfigurationError, match="p = 0"):
        LruLedger(graph.trace, S, order, [0] * len(order), p=0)
    with pytest.raises(ConfigurationError, match="p = 2"):
        LruLedger(graph.trace, S, order, p=2)
