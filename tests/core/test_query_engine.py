"""Vectorized query engine vs the reference per-pair loop: exact equality.

The batch engine's contract is *bit-identical* `EvaluationReport`s — the
same routed/delivered/optimal counts, the same failure tuples in the same
order (message strings included), and the same stretch samples.  Hypothesis
drives seeded graphs through every compiled scheme family under both
engines; further tests pin the fallback ladder (telemetry, non-additive
algebras) and the spawn-path shared-memory attach.
"""

import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import shared_arrays
from repro.algebra.catalog import MinHop, ShortestPath, UsablePath, WidestPath
from repro.core.simulate import (
    EvaluationOptions,
    evaluate_scheme,
    oracle_cache,
    route_shard,
)
from repro.graphs.generators import erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR, assign_random_weights
from repro.obs.metrics import disable as telemetry_disable
from repro.obs.metrics import enable as telemetry_enable
from repro.obs.metrics import reset as telemetry_reset
from repro.routing import compiled_query, query_engine
from repro.routing.cowen import CowenScheme
from repro.routing.destination_table import DestinationTableScheme
from repro.routing.pair_table import PairTableScheme
from repro.routing.tree_routing import TreeRoutingScheme

needs_numpy = pytest.mark.skipif(not compiled_query.numpy_available(),
                                 reason="numpy (repro[fast]) not installed")


@pytest.fixture(autouse=True)
def clean_engine_state():
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    query_engine.reset_query_stats()
    yield
    oracle_cache.clear()
    telemetry_disable()
    telemetry_reset()
    query_engine.reset_query_stats()


def _with_engine(engine, fn):
    """Run *fn* on the ``batch`` engine or the ``reference`` per-pair loop.

    No option selects the query engine: ``route_shard`` runs the
    reference loop whenever ``evaluate_shard`` declines, so the
    reference side stubs it to decline for the duration of *fn*.
    """
    if engine == "batch":
        return fn()
    real = compiled_query.evaluate_shard
    compiled_query.evaluate_shard = lambda *args: None
    try:
        return fn()
    finally:
        compiled_query.evaluate_shard = real


def _shard_key(result):
    return (result.routed, result.delivered, result.optimal,
            result.failures, result.stretch)


FAMILIES = ("cowen", "destination", "tree", "pair")


def _build_instance(family, seed, n):
    rng = random.Random(seed)
    if family == "tree":
        algebra = UsablePath()
    elif seed % 2:
        algebra = MinHop()
    else:
        algebra = ShortestPath(max_weight=9)
    if family == "pair":
        n = min(n, 8)   # the enumeration oracle is exponential
    graph = erdos_renyi(n, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    if family == "cowen":
        scheme = CowenScheme(graph, algebra, rng=random.Random(seed + 1))
    elif family == "destination":
        scheme = DestinationTableScheme(graph, algebra)
    elif family == "tree":
        scheme = TreeRoutingScheme(graph, algebra)
    else:
        scheme = PairTableScheme(graph, algebra)
    return graph, algebra, scheme


class TestBatchReferenceEquality:
    """The headline property: both engines, same `EvaluationReport`."""

    @needs_numpy
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=4, max_value=12),
        family=st.sampled_from(FAMILIES),
        sabotage=st.booleans(),
    )
    def test_reports_are_bit_identical(self, seed, n, family, sabotage):
        graph, algebra, scheme = _build_instance(family, seed, n)
        if sabotage:
            # Break forwarding state *after* building, the way the fault
            # tests do: the engines must also agree on every failure.
            victim = random.Random(seed + 2).choice(list(graph.nodes()))
            if family == "destination":
                scheme._next_hop[victim] = {}
            elif family == "pair":
                scheme._entries[victim] = {}
        options = EvaluationOptions(pair_count=min(4 * n * n, 200), rng=seed)
        query_engine.reset_query_stats()
        reference = _with_engine("reference", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        batch = _with_engine("batch", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        assert batch == reference
        assert batch.failures == reference.failures
        assert batch.stretch == reference.stretch
        assert query_engine.query_stats()["batch_shards"] >= 1

    @needs_numpy
    def test_route_shard_failure_tuples_and_order(self):
        """Sabotaged tables: native failure strings match the reference."""
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(18, rng=random.Random(3))
        assign_random_weights(graph, algebra, rng=random.Random(4))
        scheme = DestinationTableScheme(graph, algebra)
        scheme._next_hop[5] = {}   # strands packets routed *through* 5 too
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes for t in nodes]
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert reference.failures   # the sabotage is visible
        assert _shard_key(batch) == _shard_key(reference)


class TestResolver:
    def test_default_is_batch(self):
        assert query_engine.resolve_query_engine() == "batch"


class TestFallbackLadder:
    @needs_numpy
    def test_telemetry_forces_reference_and_counts_fallback(self):
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(12, rng=random.Random(8))
        assign_random_weights(graph, algebra, rng=random.Random(9))
        scheme = DestinationTableScheme(graph, algebra)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        pairs = [(0, 5), (1, 6), (2, 7)]
        telemetry_enable()
        try:
            query_engine.reset_query_stats()
            result = _with_engine("batch", lambda: route_shard(
                algebra, scheme, oracle, list(pairs)))
        finally:
            telemetry_disable()
            telemetry_reset()
        stats = query_engine.query_stats()
        assert stats["batch_shards"] == 0
        assert stats["fallbacks"].get("trace-fidelity") == 1
        assert result.routed == len(
            [p for p in pairs])  # the reference loop still evaluated

    @needs_numpy
    def test_non_additive_algebra_falls_back_per_scheme(self):
        """WidestPath keys are not additive: uncompilable, not wrong."""
        algebra = WidestPath(max_capacity=9)
        graph = erdos_renyi(12, rng=random.Random(5))
        assign_random_weights(graph, algebra, rng=random.Random(6))
        scheme = DestinationTableScheme(graph, algebra)
        assert compiled_query.compile_query(scheme) is None
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        pairs = [(0, 4), (1, 5), (2, 6)]
        query_engine.reset_query_stats()
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert _shard_key(batch) == _shard_key(reference)
        assert query_engine.query_stats()["fallbacks"].get("uncompilable") == 1

    @needs_numpy
    def test_stale_cache_recompiles_after_mutation(self):
        """Evaluate, sabotage, evaluate again: no stale compiled tables."""
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(14, rng=random.Random(12))
        assign_random_weights(graph, algebra, rng=random.Random(13))
        scheme = DestinationTableScheme(graph, algebra)
        oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
        nodes = list(graph.nodes())
        pairs = [(s, t) for s in nodes[:6] for t in nodes]
        before = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert not before.failures
        scheme._next_hop[nodes[2]] = {}
        reference = _with_engine("reference", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        batch = _with_engine("batch", lambda: route_shard(
            algebra, scheme, oracle, list(pairs)))
        assert reference.failures
        assert _shard_key(batch) == _shard_key(reference)


class TestSharedQueryTables:
    @needs_numpy
    def test_export_attach_roundtrip_is_zero_copy(self):
        import numpy as np

        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(20, rng=random.Random(21))
        assign_random_weights(graph, algebra, rng=random.Random(22))
        scheme = CowenScheme(graph, algebra, rng=random.Random(23))
        tables = compiled_query.compile_query(scheme)
        assert tables is not None
        handles, descriptor = compiled_query.export_shared_query(tables)
        if descriptor is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            # A pickled clone stands in for the spawn worker's unpickled
            # payload (same node objects via pickle memoization).
            _, _, worker_scheme = pickle.loads(
                pickle.dumps((graph, algebra, scheme)))
            assert compiled_query.attach_shared_query(worker_scheme,
                                                      descriptor)
            attached = compiled_query.compile_query(worker_scheme)
            assert attached is not None
            assert attached.shm_handles   # pinned segments = attached path
            assert attached.kind == tables.kind
            for (name, (_, shape, dtype)), segment in zip(
                    descriptor["arrays"].items(), attached.shm_handles):
                view = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                  buffer=segment.buf)
                assert np.array_equal(attached.arrays[name],
                                      tables.arrays[name])
                assert np.shares_memory(attached.arrays[name], view)
            # and the attached tables evaluate identically
            oracle = oracle_cache.get(graph, algebra, WEIGHT_ATTR)
            nodes = list(graph.nodes())
            pairs = [(s, t) for s in nodes[:5] for t in nodes]
            reference = _with_engine("reference", lambda: route_shard(
                algebra, scheme, oracle, list(pairs)))
            batch = _with_engine("batch", lambda: route_shard(
                algebra, worker_scheme, oracle, list(pairs)))
            assert _shard_key(batch) == _shard_key(reference)
            compiled_query._CACHE.pop(worker_scheme, None)
            del attached, view
            gc.collect()
        finally:
            shared_arrays.close(handles, unlink=True)

    @needs_numpy
    def test_spawn_workers_match_serial_reference(self, spawn_workers):
        algebra = ShortestPath(max_weight=9)
        graph = erdos_renyi(30, rng=random.Random(31))
        assign_random_weights(graph, algebra, rng=random.Random(32))
        scheme = CowenScheme(graph, algebra, rng=random.Random(33))
        options = EvaluationOptions(pair_count=400, rng=34, workers=2,
                                    shard_size=100)
        serial_options = EvaluationOptions(pair_count=400, rng=34)
        parallel = _with_engine("batch", lambda: evaluate_scheme(
            graph, algebra, scheme, options=options))
        serial = _with_engine("reference", lambda: evaluate_scheme(
            graph, algebra, scheme, options=serial_options))
        assert parallel == serial
        assert parallel.failures == serial.failures
