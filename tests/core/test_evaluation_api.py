"""The evaluation API: options, facade, signature, seeds, oracle cache."""

import random

import pytest

from repro.algebra.catalog import ShortestPath
from repro.core.compiler import build_scheme
from repro.core.simulate import (
    EvaluationOptions,
    EvaluationReport,
    as_rng,
    evaluate_scheme,
    oracle_cache,
    preferred_weight_oracle,
    run_experiment,
    sample_pairs,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import assign_random_weights
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import reset as telemetry_reset
from repro.routing.memory import memory_report
from repro.routing.stretch import StretchReport


def _instance(n=16, seed=1):
    algebra = ShortestPath()
    graph = erdos_renyi(n, rng=random.Random(seed))
    assign_random_weights(graph, algebra, rng=random.Random(seed + 1))
    return graph, algebra, build_scheme(graph, algebra)


@pytest.fixture(autouse=True)
def clean_global_state():
    """These tests poke process-wide state; start and leave it clean."""
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()
    yield
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    obs_tracing.clear_spans()


class TestAsRng:
    def test_passthrough(self):
        rng = random.Random(3)
        assert as_rng(rng) is rng
        assert as_rng(None) is None

    def test_int_seed(self):
        assert as_rng(7).random() == random.Random(7).random()

    @pytest.mark.parametrize("bad", [True, 1.5, "7"])
    def test_rejects_non_int(self, bad):
        with pytest.raises(TypeError):
            as_rng(bad)


class TestEvaluationOptions:
    @pytest.mark.parametrize("kwargs", [
        {"max_k": 0},
        {"trace_limit": -1},
        {"workers": -2},
        {"shard_size": 0},
        {"pair_count": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EvaluationOptions(**kwargs)

    def test_frozen(self):
        options = EvaluationOptions()
        with pytest.raises(AttributeError):
            options.max_k = 3

    def test_pairs_normalized_to_tuple(self):
        # A list (or generator) of pairs is snapshotted at construction,
        # so a shared options object can't be mutated through its pairs.
        pairs = [(0, 1), (1, 2)]
        options = EvaluationOptions(pairs=pairs)
        assert options.pairs == ((0, 1), (1, 2))
        assert isinstance(options.pairs, tuple)
        pairs.append((2, 3))
        assert options.pairs == ((0, 1), (1, 2))
        generated = EvaluationOptions(pairs=(p for p in [(4, 5)]))
        assert generated.pairs == ((4, 5),)


class TestDeprecationShim:
    def test_legacy_pairs_keyword_raises(self):
        # The pre-2.0 keyword arguments are gone: wrap them in options.
        graph, algebra, scheme = _instance()
        pairs = sample_pairs(graph)[:4]
        with pytest.raises(TypeError):
            evaluate_scheme(graph, algebra, scheme, pairs=pairs)
        with pytest.raises(TypeError, match="EvaluationOptions"):
            evaluate_scheme(graph, algebra, scheme, pairs)

    def test_options_accepted_positionally(self):
        graph, algebra, scheme = _instance()
        report = evaluate_scheme(graph, algebra, scheme,
                                 EvaluationOptions(pair_count=6))
        assert report.pairs <= 6

    def test_mixing_legacy_and_options_rejected(self):
        graph, algebra, scheme = _instance()
        with pytest.raises(TypeError):
            evaluate_scheme(graph, algebra, scheme, max_k=4,
                            options=EvaluationOptions())

    def test_unknown_keyword_rejected(self):
        graph, algebra, scheme = _instance()
        with pytest.raises(TypeError):
            evaluate_scheme(graph, algebra, scheme, workers=2)


class TestSeedDeterminism:
    def test_sample_pairs_int_seed_matches_random(self):
        graph, _, _ = _instance()
        assert sample_pairs(graph, count=20, rng=5) == \
            sample_pairs(graph, count=20, rng=random.Random(5))
        assert sample_pairs(graph, count=20, rng=5) != \
            sample_pairs(graph, count=20, rng=6)

    def test_run_experiment_one_seed_reproduces(self):
        algebra = ShortestPath()
        graph = erdos_renyi(20, rng=random.Random(9))
        assign_random_weights(graph, algebra, rng=random.Random(10))
        options = EvaluationOptions(pair_count=30, rng=7)
        first = run_experiment(graph, algebra, mode="compact", options=options)
        second = run_experiment(graph, algebra, mode="compact", options=options)
        assert first.report == second.report
        assert memory_report(first.scheme) == memory_report(second.scheme)
        assert first.summary() == second.summary()


class TestEmptyPairsSummary:
    def test_summary_has_no_zero_division(self):
        graph, algebra, scheme = _instance()
        report = evaluate_scheme(graph, algebra, scheme,
                                 options=EvaluationOptions(pairs=[]))
        assert report.pairs == 0
        text = report.summary()
        assert "no routable pairs" in text
        assert "0/0" not in text

    def test_summary_direct_construction(self):
        report = EvaluationReport(
            scheme_name="x", pairs=0, delivered=0, optimal=0,
            stretch=StretchReport(scheme_name="x", pairs=0, within_1=0,
                                  within_3=0, unbounded=0, max_stretch=None),
            memory=memory_report(_instance(n=6)[2]), failures=())
        assert "no routable pairs" in report.summary()


class TestOracleCache:
    def test_repeated_evaluation_hits_cache(self):
        telemetry_enable()
        graph, algebra, scheme = _instance()
        options = EvaluationOptions(pair_count=10)
        evaluate_scheme(graph, algebra, scheme, options=options)
        first = [s for s in obs_tracing.spans()
                 if s.name == "oracle" and ("cache_hit", "false") in s.tags]
        assert len(first) == 1  # built exactly once
        evaluate_scheme(graph, algebra, scheme, options=options)
        evaluate_scheme(graph, algebra, scheme, options=options)
        again = [s for s in obs_tracing.spans()
                 if s.name == "oracle" and ("cache_hit", "false") in s.tags]
        assert len(again) == 1  # no rebuild on the cached path
        hits = [s for s in obs_tracing.spans()
                if s.name == "oracle" and ("cache_hit", "true") in s.tags]
        assert len(hits) == 2  # hits still leave a (zero-cost) span
        assert oracle_cache.stats()["hits"] == 2
        assert oracle_cache.stats()["misses"] == 1

    def test_mutating_graph_invalidates(self):
        telemetry_enable()
        graph, algebra, scheme = _instance()
        options = EvaluationOptions(pair_count=5)
        evaluate_scheme(graph, algebra, scheme, options=options)
        u, v, data = next(iter(graph.edges(data=True)))
        data[scheme.attr] = data[scheme.attr] + 1
        evaluate_scheme(graph, algebra, scheme, options=options)
        oracle_spans = [s for s in obs_tracing.spans()
                        if s.name == "oracle"
                        and ("cache_hit", "false") in s.tags]
        assert len(oracle_spans) == 2  # new signature -> rebuilt
        assert oracle_cache.stats()["misses"] == 2

    def test_different_algebra_instances_share_entry(self):
        graph, _, scheme = _instance()
        a = oracle_cache.get(graph, ShortestPath(), attr=scheme.attr)
        b = oracle_cache.get(graph, ShortestPath(), attr=scheme.attr)
        assert a is b
        stats = oracle_cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == oracle_cache.capacity

    def test_lru_eviction(self):
        algebra = ShortestPath()
        graphs = []
        for seed in range(oracle_cache.capacity + 1):
            g = erdos_renyi(6, rng=random.Random(seed))
            assign_random_weights(g, algebra, rng=random.Random(seed + 50))
            graphs.append(g)
            oracle_cache.get(g, algebra)
        assert len(oracle_cache) == oracle_cache.capacity
        # the oldest entry was evicted: fetching it again is a miss
        misses = oracle_cache.stats()["misses"]
        oracle_cache.get(graphs[0], algebra)
        assert oracle_cache.stats()["misses"] == misses + 1

    def test_explicit_oracle_bypasses_cache(self):
        graph, algebra, scheme = _instance()
        oracle = preferred_weight_oracle(graph, algebra)
        evaluate_scheme(graph, algebra, scheme,
                        options=EvaluationOptions(oracle=oracle, pair_count=5))
        assert oracle_cache.stats()["misses"] == 0
