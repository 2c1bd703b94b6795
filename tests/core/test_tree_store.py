"""One tree store per run: every per-source tree and the graph built once.

``build_scheme`` fills one :class:`~repro.paths.store.TreeStore` (the
exact oracle) in a bulk sweep, and the evaluation that follows adopts it
from the oracle cache, so a ``run_experiment`` compiles the graph once
and builds each source tree once — with every tree substituted from
each path engine in turn (the ``force_path_engine`` fixture), and with
trees identical to the per-node builds they replace, dict order included.
"""

import random

import networkx as nx
import pytest

from repro.algebra.catalog import ShortestPath
from repro.core.compiler import build_scheme
from repro.core.simulate import (
    EvaluationOptions,
    PreferredWeightOracle,
    oracle_cache,
    run_experiment,
)
from repro.exceptions import NotApplicableError
from repro.graphs.generators import barabasi_albert
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import metrics as telemetry_metrics
from repro.obs.metrics import reset as telemetry_reset
from repro.paths import batch
from repro.paths.dijkstra import preferred_path_tree
from repro.paths.kernel import compile_graph, kernel_tree
from repro.paths.store import BATCH_MIN_SOURCES, TreeStore
from repro.routing.cowen import CowenScheme

#: ``kernel-heap`` builds the expected trees with the kernel's heap
#: fallback and the scheme under the default engine.
ENGINES = ["", "kernel", "kernel-heap", "batch", "reference"]

needs_numpy = pytest.mark.skipif(
    not batch.numpy_available(),
    reason="numpy not installed (the repro[fast] optional extra)",
)


@pytest.fixture(autouse=True)
def clean_global_state():
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()
    yield
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()


def _instance(n=64, seed=3):
    algebra = ShortestPath(max_weight=16)
    rng = random.Random(seed)
    graph = barabasi_albert(n, m=2, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    return graph, algebra


def _counters():
    return telemetry_metrics().snapshot()["counters"]


@pytest.mark.parametrize("mode", ["compact", "exact"])
@pytest.mark.parametrize("engine", ["", "kernel", "batch", "reference"])
def test_run_experiment_builds_each_tree_once(force_path_engine, mode, engine):
    force_path_engine(engine)
    graph, algebra = _instance()
    n = graph.number_of_nodes()
    telemetry_enable()
    result = run_experiment(graph, algebra, mode=mode,
                            options=EvaluationOptions(rng=0))
    counters = _counters()
    assert result.report.all_delivered
    assert counters["path_engine.compile_graph_calls"] == 1
    stats = oracle_cache.stats()
    # The evaluation's lookup missed and adopted the build's store.
    assert (stats["misses"], stats["hits"], stats["offered"]) == (1, 0, 0)
    # n trees in total: the build made every one, the evaluation none.
    assert stats["trees_built"] == n
    assert counters["oracle.trees_built"] == n
    if engine == "" and batch.numpy_available():
        # The default engine ran the build as one bulk batch fill.
        assert counters["path_engine.batch_sources"] == n


@pytest.mark.parametrize("engine", ENGINES)
def test_cowen_trees_match_per_node_build(force_path_engine, engine):
    graph, algebra = _instance(n=40, seed=5)
    if engine == "kernel-heap":
        compiled = compile_graph(graph)
        expected = {node: kernel_tree(compiled, algebra, node, buckets=False)
                    for node in graph.nodes()}
        engine = ""
    else:
        expected = {node: preferred_path_tree(graph, algebra, node)
                    for node in graph.nodes()}
    force_path_engine(engine)
    for scheme in (CowenScheme(graph, algebra, rng=random.Random(0)),
                   build_scheme(graph, algebra, mode="compact", rng=0)):
        assert list(scheme._trees) == list(expected)
        for node, tree in scheme._trees.items():
            assert tree.root == node
            assert list(tree.weight.items()) == list(
                expected[node].weight.items())
            assert list(tree.parent.items()) == list(
                expected[node].parent.items())


@needs_numpy
def test_default_bulk_fill_crossover():
    graph, algebra = _instance(n=32)
    nodes = list(graph.nodes())
    store = TreeStore(graph, algebra)
    telemetry_enable()
    store.ensure_sources(nodes[:BATCH_MIN_SOURCES - 1])
    assert _counters().get("path_engine.batch_sources", 0) == 0
    store.ensure_sources(nodes[:2 * BATCH_MIN_SOURCES])
    # Only the missing sources ran, as one sweep.
    assert _counters()["path_engine.batch_sources"] == BATCH_MIN_SOURCES + 1
    assert store.trees_built == 2 * BATCH_MIN_SOURCES
    assert _counters()["path_engine.compile_graph_calls"] == 1


@needs_numpy
@pytest.mark.parametrize("engine,batched", [("kernel", 0), ("reference", 0),
                                            ("batch", 1)])
def test_forced_engine_keeps_its_meaning(force_path_engine, engine, batched):
    """The substitution points the engine tests rely on: a forced engine
    decides every fill, one source included."""
    force_path_engine(engine)
    graph, algebra = _instance(n=24)
    telemetry_enable()
    TreeStore(graph, algebra).ensure_sources([0])
    TreeStore(graph, algebra).ensure_sources(graph.nodes())
    expected = batched * (1 + graph.number_of_nodes())
    assert _counters().get("path_engine.batch_sources", 0) == expected


def test_stats_report_the_engine_that_fills_bulk_trees():
    graph, algebra = _instance(n=16)
    oracle = PreferredWeightOracle(graph, algebra)
    assert oracle.stats()["path_engine"] == "auto"


def test_build_offer_is_not_adopted_after_the_graph_changes():
    graph, algebra = _instance(n=24)
    build_scheme(graph, algebra, mode="exact")
    assert oracle_cache.stats()["offered"] == 1
    u, v = next(iter(graph.edges()))
    graph[u][v][WEIGHT_ATTR] = 16
    oracle = oracle_cache.get(graph, algebra)
    assert oracle.trees_built == 0  # a fresh oracle, not the stale offer
    assert oracle(u, v) == preferred_path_tree(graph, algebra, u).weight[v]


def _disconnected():
    graph = nx.disjoint_union(nx.cycle_graph(5), nx.cycle_graph(4))
    for u, v in graph.edges():
        graph[u][v][WEIGHT_ATTR] = 1 + (u + v) % 5
    return graph


def test_disconnected_compact_build_raises_and_leaves_no_store():
    algebra = ShortestPath(max_weight=16)
    graph = _disconnected()
    with pytest.raises(NotApplicableError, match="cannot reach"):
        CowenScheme(graph, algebra)
    with pytest.raises(NotApplicableError, match="cannot reach"):
        build_scheme(graph, algebra, mode="compact")
    stats = oracle_cache.stats()
    assert (stats["entries"], stats["offered"]) == (0, 0)
    assert oracle_cache.get(graph, algebra).trees_built == 0
