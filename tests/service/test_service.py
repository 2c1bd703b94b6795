"""Unit tests for the persistent :class:`repro.service.RoutingService`."""

import random

import pytest

import repro
from repro.algebra.base import PHI
from repro.algebra.catalog import ShortestPath, WidestPath
from repro.exceptions import GraphError
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.service import RoutingService, ServiceOptions, UpdateResult


def make_instance(n=16, seed=42, algebra=None):
    algebra = algebra or ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return graph, algebra


def all_pairs(graph):
    nodes = sorted(graph.nodes())
    return [(s, t) for s in nodes for t in nodes if s != t]


class TestLifecycle:
    def test_scheme_built_eagerly(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        assert service.scheme_builds == 1
        service.route([(0, 1)])
        assert service.scheme_builds == 1

    def test_warm_queries_build_no_new_state(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        pairs = [(0, 5), (3, 9), (0, 7)]
        service.route(pairs)
        oracle_stats = service.stats()["oracle"]
        built = oracle_stats["trees_built"]
        assert built == 2  # sources 0 and 3
        service.route(pairs)
        service.stretch(pairs)
        assert service.stats()["oracle"]["trees_built"] == built
        assert service.scheme_builds == 1

    def test_query_counters(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        service.route([(0, 1), (1, 2)])
        service.stretch([(2, 3)])
        assert service.queries == 3

    def test_self_pair_and_unknown_node(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        self_answer, unknown = service.route([(3, 3), ("ghost", 1)])
        assert self_answer.delivered and self_answer.optimal
        assert self_answer.path == (3,)
        assert not unknown.routable and unknown.reason == "unknown node"

    def test_memory_matches_direct_report(self):
        from repro.routing.memory import memory_report

        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        assert service.memory() == memory_report(service.scheme)

    def test_answers_agree_with_run_experiment(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra, ServiceOptions(seed=7))
        report = repro.run_experiment(
            graph, algebra, options=repro.EvaluationOptions(rng=7)).report
        answers = service.route(all_pairs(graph))
        routable = [a for a in answers if a.routable]
        assert len(routable) == report.pairs
        assert sum(a.delivered for a in routable) == report.delivered
        assert sum(bool(a.optimal) for a in routable) == report.optimal


class TestMutations:
    def test_update_weight_changes_answers(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        u, v = next(iter(graph.edges()))
        before = service.route([(u, v)])[0]
        result = service.update_weight(u, v, 1)
        assert isinstance(result, UpdateResult)
        after = service.route([(u, v)])[0]
        assert after.preferred == 1
        assert before.preferred != after.preferred or before.preferred == 1

    def test_update_missing_edge_raises(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        with pytest.raises(GraphError):
            service.update_weight("nope", "also-nope", 1)

    def test_fail_then_restore_roundtrips(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra, ServiceOptions(seed=3))
        pairs = all_pairs(graph)
        baseline = service.route(pairs)
        u, v = next(iter(graph.edges()))
        service.fail_link(u, v)
        assert not graph.has_edge(u, v)
        service.restore_link(u, v)
        assert graph.has_edge(u, v)
        assert service.route(pairs) == baseline

    def test_restore_unknown_edge_needs_weight(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        missing = next((s, t) for s in graph for t in graph
                       if s != t and not graph.has_edge(s, t))
        with pytest.raises(GraphError):
            service.restore_link(*missing)
        service.restore_link(*missing, weight=2)
        assert graph[missing[0]][missing[1]]["weight"] == 2

    def test_fail_twice_raises(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        u, v = next(iter(graph.edges()))
        service.fail_link(u, v)
        with pytest.raises(GraphError):
            service.fail_link(u, v)

    def test_mutation_dirties_scheme_lazily(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        u, v = next(iter(graph.edges()))
        service.update_weight(u, v, 5)
        assert service._scheme is None
        service.route([(0, 1)])
        assert service.scheme_builds == 2

    def test_update_counters_accumulate(self):
        graph, algebra = make_instance()
        service = RoutingService(graph, algebra)
        service.route(all_pairs(graph))  # build all trees
        u, v = next(iter(graph.edges()))
        result = service.update_weight(u, v, 9)
        stats = service.stats()
        assert stats["updates"] == 1
        assert stats["trees_kept"] == result.trees_kept
        assert stats["trees_dropped"] == result.trees_dropped
        assert result.trees_kept + result.trees_dropped == len(graph)


class TestSurgicalInvalidation:
    def test_weight_patch_keeps_unaffected_trees(self):
        # A long path: 0-1-2-3-4-5, plus a heavy shortcut 0-5.  Worsening
        # the already-unused shortcut must keep every tree.
        import networkx as nx

        algebra = ShortestPath()
        graph = nx.path_graph(6)
        for u, v in graph.edges():
            graph[u][v]["weight"] = 1
        graph.add_edge(0, 5, weight=100)
        service = RoutingService(graph, algebra)
        service.route(all_pairs(graph))
        result = service.update_weight(0, 5, 200)
        assert result.trees_dropped == 0
        assert result.trees_kept == 6
        assert result.compiled_patched
        assert service.route([(0, 5)])[0].preferred == 5

    def test_weight_improvement_drops_affected_trees(self):
        import networkx as nx

        algebra = ShortestPath()
        graph = nx.path_graph(6)
        for u, v in graph.edges():
            graph[u][v]["weight"] = 1
        graph.add_edge(0, 5, weight=100)
        service = RoutingService(graph, algebra)
        service.route(all_pairs(graph))
        result = service.update_weight(0, 5, 1)
        assert result.trees_dropped > 0
        assert service.route([(0, 5)])[0].preferred == 1

    def test_fail_non_tree_edge_keeps_trees(self):
        import networkx as nx

        algebra = ShortestPath()
        graph = nx.path_graph(6)
        for u, v in graph.edges():
            graph[u][v]["weight"] = 1
        graph.add_edge(0, 5, weight=100)
        service = RoutingService(graph, algebra)
        service.route(all_pairs(graph))
        result = service.fail_link(0, 5)
        assert result.trees_dropped == 0
        assert result.trees_kept == 6
        # removal cannot be absorbed by a CSR weight patch
        assert not result.compiled_patched

    def test_fail_tree_edge_drops_trees(self):
        import networkx as nx

        algebra = ShortestPath()
        graph = nx.path_graph(4)
        for u, v in graph.edges():
            graph[u][v]["weight"] = 1
        graph.add_edge(0, 3, weight=100)
        service = RoutingService(graph, algebra)
        service.route(all_pairs(graph))
        result = service.fail_link(1, 2)
        assert result.trees_dropped == 4
        answer = service.route([(0, 3)])[0]
        assert answer.preferred == 100

    def test_non_dijkstra_engine_uses_reachability_rule(self):
        # shortest-widest uses its own engine: invalidation falls back to
        # the endpoint-reachability rule but must stay correct.
        from repro.algebra.lexicographic import shortest_widest_path

        algebra = shortest_widest_path()
        graph = erdos_renyi(12, rng=random.Random(5))
        assign_random_weights(graph, algebra, rng=random.Random(6))
        service = RoutingService(graph, algebra)
        pairs = all_pairs(graph)
        service.route(pairs)
        u, v = next(iter(graph.edges()))
        service.update_weight(u, v, graph[u][v]["weight"])
        fresh = RoutingService(graph.copy(), algebra)
        assert service.route(pairs) == fresh.route(pairs)


class TestServiceOptions:
    def test_frozen(self):
        options = ServiceOptions()
        with pytest.raises(Exception):
            options.mode = "exact"

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceOptions(mode="hyperdrive")
        with pytest.raises(TypeError):
            ServiceOptions(seed="zero")
        with pytest.raises(ValueError):
            ServiceOptions(max_k=0)

    def test_top_level_exports(self):
        assert repro.RoutingService is RoutingService
        assert repro.ServiceOptions is ServiceOptions
        assert repro.UpdateResult is UpdateResult
        for name in ("RoutingService", "ServiceOptions", "UpdateResult",
                     "service"):
            assert name in repro.__all__


class TestTelemetry:
    def test_counters_and_events(self):
        import repro.obs as obs
        from repro.obs import events as obs_events

        graph, algebra = make_instance()
        obs.enable()
        try:
            obs.reset_all()
            service = RoutingService(graph, algebra)
            service.route([(0, 1), (2, 3)])
            u, v = next(iter(graph.edges()))
            service.update_weight(u, v, 2)
            counters = obs.telemetry_snapshot(
                include_spans=False)["metrics"]["counters"]
            assert counters["service.queries"] == 2
            assert counters["service.scheme_builds"] == 1
            assert any(name.startswith("service.updates") for name in counters)
            assert "service.invalidation.dropped" in counters
            kinds = [event.kind for event in obs_events.events()]
            assert "service_query" in kinds
            assert "service_update" in kinds
        finally:
            obs_events.clear_events()
            obs.disable()
            obs.reset_all()
