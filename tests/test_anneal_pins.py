"""Annealer outputs pinned bit for bit at fixed seeds.

Order search, co-search and partition refinement all anneal.  The
digests below are fixed values: a change to how a chain is driven, how a
portfolio picks its winner or how a move is drawn must leave every
returned order, owner, cost, evaluation count, winning chain and
per-iteration convergence series unchanged.  Each run records its series
under its own :func:`~repro.obs.probe.probe_scope`.
"""

import hashlib
import json

import pytest

from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.search import anneal_search
from repro.obs.probe import probe_scope
from repro.parallel import partition_graph, refine_partition
from repro.parallel.cosearch import cosearch

M, S = 3, 15

#: The ``params`` entries each engine reports about its walk.  Any other
#: key is configuration, not outcome, and is left out of the pin.
ANNEAL_PARAMS = (
    "iters", "seed", "accepted", "illegal", "acceptance_rate",
    "chains", "jobs", "winner_chain", "chain_costs",
)
COSEARCH_PARAMS = (
    "iters", "seed", "jobs", "chains", "alpha", "beta", "relax_reductions",
    "balance_slack", "accepted", "acceptance_rate", "illegal",
    "order_moves", "owner_moves",
)
REFINE_PARAMS = ("iters", "seed", "accepted", "acceptance_rate", "skipped")

#: (kernel, N, relax_reductions, chains) -> digest of ``anneal_search``.
ANNEAL_PINS = {
    ("tbs", 24, False, 1):
        "09183b9ee22c40e846e3db14e72af8b159551f51ce396a138dc7321534e36a8c",
    ("tbs", 24, False, 3):
        "fd905efc8e9e35204e4341885feba07678551ecfb85398909a5bfbb4ff1b8fc3",
    ("tbs", 24, True, 1):
        "42ef7f862ed8aa65210061cc2c02a77e86b8c991837c09849a8be434c5b0defb",
    ("tbs", 24, True, 3):
        "e71c90642fc66d31a091aca8843b4105c55e5d44c2841ab7ec927288111c2ce2",
    ("syr2k", 16, False, 1):
        "7996afdd137f1baab7cda05bb13e4d14c303952a51792d6a0e8be2a77f353044",
    ("syr2k", 16, False, 3):
        "94ef96c455b055e85f82ae281d5a6328063bddcb5d0515b5d75dbde2c0d229c5",
    ("syr2k", 16, True, 1):
        "28ad4d2eb3ebfea821daaec554f597c21b7b18a994d6fe115c7188c3525b00fa",
    ("syr2k", 16, True, 3):
        "2c9b60d1058d9710b2c4d5a3974a414c4c3e11d6ed388dfb8f39386abd0470fc",
    ("chol", 20, False, 1):
        "204d98f74ec4388fc293899a555d36fca4471430caa7db79bcd920002868b0f1",
    ("chol", 20, False, 3):
        "421f5de8f000e3fe598e03690f2b79f690f8fd7a9c302ab83c7518772677ebe9",
    ("chol", 20, True, 1):
        "cc3164fd61b60eeaf002c1d317775793aacad6420c4bd37028d252e654259bd8",
    ("chol", 20, True, 3):
        "a77e96cce3fa485e0b4727e251d1527790ac06edcc751a8bd3b18235b6956ab9",
}

#: p -> digest of ``cosearch`` on tbs N=24.
COSEARCH_PINS = {
    2:
        "f60bd6f9573fe8c482e753e8034047418eea29d5c0ce2973cb364422ae8f4278",
    4:
        "b5f574d376faea4030450777a19f9782b239eec82b151bd6fa7eefb4d9264a19",
}

#: strategy -> digest of ``refine_partition`` on tbs N=24, p=4.
REFINE_PINS = {
    "anneal":
        "7984a6deabf6349c92ec94a21d81684af166fd7efe2979c26cba518a057ba18d",
    "greedy+anneal":
        "9387c423de84ce7711aa28925d2ca7dcd0d456046712f3ca4d0908fe370e82f8",
}

_GRAPHS: dict = {}


def graph(kernel: str, n: int) -> DependencyGraph:
    if (kernel, n) not in _GRAPHS:
        case = record_case(kernel, n, 0 if kernel == "chol" else M, S)
        _GRAPHS[kernel, n] = DependencyGraph.from_trace(case.trace)
    return _GRAPHS[kernel, n]


def digest(payload) -> str:
    """SHA-256 of a JSON rendering; floats print round-trip exact."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def picked(params: dict, keys) -> dict:
    return {k: params[k] for k in keys if k in params}


def anneal_digest(kernel, n, relax, chains) -> str:
    with probe_scope():
        r = anneal_search(
            graph(kernel, n), S, iters=200, seed=7, relax_reductions=relax,
            chains=chains,
        )
    return digest({
        "order": r.order, "cost": r.cost, "evaluations": r.evaluations,
        "params": picked(r.params, ANNEAL_PARAMS),
        "series": r.convergence.as_dict(),
    })


def cosearch_digest(p) -> str:
    with probe_scope():
        r = cosearch(
            graph("tbs", 24), p, S, iters=80, seed=0,
            search_kwargs={"anneal": {"iters": 30, "seed": 0}},
        )
    return digest({
        "order": r.order, "owner": list(r.owner), "cost": r.cost,
        "seed_cost": r.seed_cost, "seed_label": r.seed_label,
        "seed_costs": r.seed_costs, "winner_chain": r.winner_chain,
        "chain_costs": r.chain_costs, "evaluations": r.evaluations,
        "reverted": r.reverted, "params": picked(r.params, COSEARCH_PARAMS),
        "series": r.convergence.as_dict(),
    })


def refine_digest(strategy) -> str:
    g = graph("tbs", 24)
    with probe_scope():
        r = refine_partition(
            g, partition_graph(g, 4, "level-greedy"), 4, S, strategy=strategy,
            iters=200, seed=3,
        )
    return digest({
        "owner": list(r.owner), "cost": r.cost, "seed_cost": r.seed_cost,
        "model_seed": r.model_seed, "model_cost": r.model_cost,
        "moves": r.moves, "evaluations": r.evaluations,
        "reverted": r.reverted, "params": picked(r.params, REFINE_PARAMS),
        "series": {k: v.as_dict() for k, v in sorted(r.convergence.items())},
    })


@pytest.mark.parametrize("kernel,n,relax,chains", sorted(ANNEAL_PINS))
def test_anneal_search_is_pinned(kernel, n, relax, chains):
    assert anneal_digest(kernel, n, relax, chains) == ANNEAL_PINS[kernel, n, relax, chains]


@pytest.mark.parametrize("p", sorted(COSEARCH_PINS))
def test_cosearch_is_pinned(p):
    assert cosearch_digest(p) == COSEARCH_PINS[p]


@pytest.mark.parametrize("strategy", sorted(REFINE_PINS))
def test_refine_partition_is_pinned(strategy):
    assert refine_digest(strategy) == REFINE_PINS[strategy]
