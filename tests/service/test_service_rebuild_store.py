"""Scheme rebuilds after churn take a fresh tree store, never the repaired oracle.

Trees the service's oracle keeps through ``fail_link``/``restore_link``
equal a cold build's as mappings, but their insertion order comes from
the graph they were built on.  A scheme rebuilt from them would hold
different state than a cold service's; these tests pin that every
rebuild starts from a fresh store, and that a graph the compact scheme
cannot serve is refused the same way through the service.
"""

import copy
import random

import networkx as nx
import pytest

from repro.algebra.catalog import ShortestPath
from repro.core.simulate import oracle_cache
from repro.exceptions import NotApplicableError
from repro.graphs.generators import barabasi_albert
from repro.graphs.weighting import assign_random_weights
from repro.service import RoutingService, ServiceOptions
from repro.service.wire import answer_to_dict, encode_response


def _instance(n=48, seed=1):
    algebra = ShortestPath(max_weight=16)
    rng = random.Random(seed)
    graph = barabasi_albert(n, m=2, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    return graph, algebra


def _all_pairs(graph):
    nodes = sorted(graph.nodes())
    return [(s, t) for s in nodes for t in nodes if s != t]


def _wire(answers):
    return encode_response({
        "id": 0, "ok": True, "op": "route",
        "result": {"answers": [answer_to_dict(a) for a in answers]},
    }).encode()


def _order(tree_maps):
    return {source: list(table.items()) for source, table in tree_maps.items()}


def test_rebuild_after_fail_restore_matches_cold_service():
    graph, algebra = _instance()
    options = ServiceOptions(mode="compact", seed=0)
    warm = RoutingService(graph, algebra, options)
    pairs = _all_pairs(graph)
    warm.route(pairs)  # every source's tree is built, so churn keeps some
    bridges = {frozenset(edge) for edge in nx.bridges(graph)}
    links = [edge for edge in sorted(graph.edges())
             if frozenset(edge) not in bridges]
    for u, v in random.Random(1).sample(links, 3):
        warm.fail_link(u, v)
        warm.route(pairs)
        warm.restore_link(u, v)
    warm_answers = warm.route(pairs)

    # The cold reference serves an exact copy of the churned graph: a
    # deep copy keeps every adjacency order (restored edges sit at the end
    # of their lists), which ``Graph.copy()`` would not.
    cold = RoutingService(copy.deepcopy(graph), algebra, options)
    cold_answers = cold.route(pairs)
    assert _wire(warm_answers) == _wire(cold_answers)
    assert warm.memory() == cold.memory()

    # The hazard is live on this instance: some trees the oracle kept
    # through the churn iterate in a different order than cold-built ones.
    assert _order(warm._oracle._tables) != _order(cold._oracle._tables)
    # The rebuilt scheme nonetheless holds cold-built trees, order included.
    for source in graph.nodes():
        warm_tree = warm.scheme._trees[source]
        cold_tree = cold.scheme._trees[source]
        assert list(warm_tree.weight.items()) == list(cold_tree.weight.items())
        assert list(warm_tree.parent.items()) == list(cold_tree.parent.items())


def test_rebuilds_never_touch_the_oracle_cache():
    oracle_cache.clear()
    try:
        graph, algebra = _instance(n=24, seed=3)
        service = RoutingService(graph, algebra,
                                 ServiceOptions(mode="compact", seed=0))
        u, v = next(iter(graph.edges()))
        service.route([(0, 1)])
        service.update_weight(u, v, 5)
        service.route([(0, 1)])
        assert service.scheme_builds == 2
        stats = oracle_cache.stats()
        assert (stats["entries"], stats["offered"]) == (0, 0)
        assert (stats["hits"], stats["misses"]) == (0, 0)
    finally:
        oracle_cache.clear()


def _disconnected():
    graph = nx.disjoint_union(nx.cycle_graph(5), nx.cycle_graph(4))
    for u, v in graph.edges():
        graph[u][v]["weight"] = 1 + (u + v) % 5
    return graph


def test_disconnected_compact_service_refuses():
    oracle_cache.clear()
    try:
        algebra = ShortestPath(max_weight=16)
        with pytest.raises(NotApplicableError, match="cannot reach"):
            RoutingService(_disconnected(), algebra,
                           ServiceOptions(mode="compact"))
        assert oracle_cache.stats()["offered"] == 0
        assert len(oracle_cache) == 0
    finally:
        oracle_cache.clear()
