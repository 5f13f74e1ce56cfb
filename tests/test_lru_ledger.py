"""The checkpointed per-node LRU ledger (repro.trace.replay.LruLedger).

The ledger scores a candidate ``(order, owner)`` pair by replaying from a
checkpoint and stopping once every node's cache re-converges with the
committed replay.  These tests pin that shortcut to ground truth:

* after every :meth:`~LruLedger.score`, the per-node loads equal a cold
  array-engine replay of each node's order-induced sub-trace;
* after every :meth:`~LruLedger.commit`, every checkpoint — recency lists
  and load counts alike — equals the checkpoint of a fresh ledger built
  on the committed pair, so the delta-shifted tail is exact;
* the cut-off actually fires: a small move in the middle of a long order
  replays a few intervals, not the whole suffix;
* a score replays only the nodes whose program changed: an owner move
  its source and destination, a move that changes no program no op at
  all, and such a move still leaves every checkpoint equal to a fresh
  ledger's when it carries ops across a checkpoint.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.search import propose_segment_move, reduction_class_of
from repro.parallel.cosearch import changed_programs
from repro.trace.replay import LruCursor, LruLedger, lru_replay_trace

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
    apart in the order, so checkpoints fall between the moved ops.
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


def walk(kernel, n, mc, p, seed, interval, steps=60, per_node=False):
    """A random walk of order and owner moves, checked against cold
    replays; ``per_node`` names the changed nodes as co-search does."""
    graph = graph_of(kernel, n, mc)
    trace = graph.trace
    rng = random.Random(seed)
    order = list(range(len(graph)))
    owner = None if p == 1 else [rng.randrange(p) for _ in order]
    ledger = LruLedger(trace, S, order, owner, p=p, interval=interval)
    assert ledger.loads == measured_loads(trace, order, owner, p)
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
        loads = ledger.score(
            cand_order, cand_owner, from_pos=i, settled=j,
            nodes=nodes if per_node else None,
        )
        assert loads == measured_loads(trace, cand_order, cand_owner, p)
        if rng.random() < 0.5:
            ledger.commit()
            commits += 1
            order, owner = cand_order, cand_owner
            fresh = LruLedger(trace, S, order, owner, p=p, interval=interval)
            assert ledger.checkpoints == fresh.checkpoints
            assert ledger.loads == fresh.loads
    assert commits > 0


@pytest.mark.parametrize("interval", [None, 3])
@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("kernel,n,mc", [("tbs", 20, 3), ("chol", 12, 0)])
def test_score_and_commit_match_cold_replay(kernel, n, mc, p, interval):
    for seed in range(3):
        walk(kernel, n, mc, p, 1000 * p + seed, interval)


@pytest.mark.parametrize("interval", [None, 2])
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("kernel,n,mc", [("tbs", 20, 3), ("chol", 12, 0)])
def test_per_node_scores_match_cold_replay(kernel, n, mc, p, interval):
    for seed in range(3):
        walk(kernel, n, mc, p, 7000 * p + seed, interval, per_node=True)


def straddling_swap(order, owner, interval):
    """Adjacent ops on different nodes either side of a checkpoint: their
    swap moves one node's op across the checkpoint, changing no program."""
    for c in range(interval, len(order) - 1, interval):
        if owner[order[c - 1]] != owner[order[c]]:
            return c
    raise AssertionError("no straddling pair")


def test_move_across_a_checkpoint_refreshes_it():
    """The window straddles a checkpoint and every node keeps its program:
    nothing replays, yet the checkpoint inside the window goes stale for
    the nodes whose op crossed it, and commit must refresh it."""
    graph = graph_of("tbs", 20, 3)
    trace, n, p, interval = graph.trace, len(graph), 3, 4
    order = list(range(n))
    owner = [v % p for v in order]
    ledger = LruLedger(trace, S, order, owner, p=p, interval=interval)
    c = straddling_swap(order, owner, interval)
    cand = order[: c - 1] + [order[c], order[c - 1]] + order[c + 1 :]
    assert not changed_programs(order[c - 1 : c + 1], cand[c - 1 : c + 1], owner)
    before = ledger.work
    loads = ledger.score(cand, owner, from_pos=c - 1, settled=c + 1, nodes=())
    assert ledger.work == before  # nothing replayed
    assert loads == measured_loads(trace, cand, owner, p) == ledger.loads
    stale = ledger.checkpoints
    ledger.commit()
    fresh = LruLedger(trace, S, cand, owner, p=p, interval=interval)
    assert stale != fresh.checkpoints  # the swap did move a snapshot
    assert ledger.checkpoints == fresh.checkpoints
    assert ledger.loads == fresh.loads


def applied_by_node(monkeypatch, ledger) -> dict:
    """Count the cursor ops each of ``ledger``'s nodes applies."""
    counts: dict = {}
    node_of = {id(c): q for q, c in enumerate(ledger._cursors)}
    apply_op = LruCursor.apply_op

    def counting(self, i):
        q = node_of.get(id(self))
        if q is not None:
            counts[q] = counts.get(q, 0) + 1
        return apply_op(self, i)

    monkeypatch.setattr(LruCursor, "apply_op", counting)
    return counts


def test_owner_move_replays_only_its_source_and_destination(monkeypatch):
    graph = graph_of("tbs", 20, 3)
    trace, n, p = graph.trace, len(graph), 4
    rng = random.Random(3)
    order = list(range(n))
    owner = [rng.randrange(p) for _ in order]
    ledger = LruLedger(trace, S, order, owner, p=p)
    counts = applied_by_node(monkeypatch, ledger)
    v = n // 2
    src, dst = owner[v], (owner[v] + 1) % p
    cand = list(owner)
    cand[v] = dst
    loads = ledger.score(order, cand, from_pos=v, settled=v + 1, nodes={src, dst})
    assert loads == measured_loads(trace, order, cand, p)
    assert set(counts) == {src, dst}
    ledger.commit()
    assert ledger.checkpoints == LruLedger(trace, S, order, cand, p=p).checkpoints


def test_neutral_move_replays_no_op(monkeypatch):
    graph = graph_of("tbs", 20, 3)
    trace, n, p = graph.trace, len(graph), 2
    order = list(range(n))
    owner = [v % p for v in order]
    ledger = LruLedger(trace, S, order, owner, p=p)
    counts = applied_by_node(monkeypatch, ledger)
    i = n // 2  # order[i] and order[i + 1] sit on different nodes
    cand = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
    assert ledger.score(cand, owner, from_pos=i, settled=i + 2, nodes=()) == ledger.loads
    assert not counts
    ledger.commit()
    assert ledger.checkpoints == LruLedger(trace, S, cand, owner, p=p).checkpoints


def test_rejected_score_leaves_committed_state():
    graph = graph_of("tbs", 20, 3)
    order = list(range(len(graph)))
    ledger = LruLedger(graph.trace, S, order)
    before = (ledger.checkpoints, list(ledger.loads))
    ledger.score(order[::-1])
    assert (ledger.checkpoints, ledger.loads) == before
    # a second score discards the first pending candidate
    ledger.score(order[::-1])
    ledger.score(order)
    assert ledger.commit() == before[1]
    assert ledger.checkpoints == before[0]


def test_cutoff_replays_only_a_few_intervals(monkeypatch):
    graph = graph_of("tbs", 40, 6)
    trace, n = graph.trace, len(graph)
    order = list(range(n))
    ledger = LruLedger(trace, S, order)
    calls = 0
    apply_op = LruCursor.apply_op

    def counting(self, i):
        nonlocal calls
        calls += 1
        return apply_op(self, i)

    monkeypatch.setattr(LruCursor, "apply_op", counting)
    i = n // 2
    candidate = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
    loads = ledger.score(candidate, from_pos=i, settled=i + 2)
    assert loads == measured_loads(trace, candidate, None, 1)
    assert calls <= 4 * ledger.interval < (n - i) // 4
    # without the settled position the same candidate replays the suffix
    calls = 0
    assert ledger.score(candidate, from_pos=i) == loads
    assert calls >= n - i


def test_empty_order_and_bad_arguments():
    graph = graph_of("chol", 12, 0)
    empty = DependencyGraph.from_trace(graph.trace.select_ops([]))
    ledger = LruLedger(empty.trace, S, [])
    assert ledger.loads == [0] and len(ledger.checkpoints) == 1
    order = list(range(len(graph)))
    with pytest.raises(ConfigurationError):
        LruLedger(graph.trace, S, order, [0] * (len(order) - 1))
    with pytest.raises(ConfigurationError):
        LruLedger(graph.trace, S, order, [0] * len(order), p=0)
    with pytest.raises(ConfigurationError):
        LruLedger(graph.trace, S, order, [-1] * len(order))
    with pytest.raises(ConfigurationError):
        LruLedger(graph.trace, S, order, interval=0)
    with pytest.raises(ConfigurationError):
        LruLedger(graph.trace, 0, order)
