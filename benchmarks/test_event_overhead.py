"""E-EVT — run-event stream: disabled-path overhead on the kernel sweep.

The PR 6 acceptance experiment.  The run-event stream (``repro.obs.
events``) instruments the pair-routing hot loop with heartbeats, so its
*disabled* cost has to be provably negligible — the same bar the metrics
registry meets.  This benchmark prices the no-op path directly:

* ``emit()`` with telemetry off (events ride the one telemetry flag) is
  timed over a large call batch to get a per-call cost (a module-flag
  test and immediate return);
* a kernel-engine preferred-tree sweep (the ``test_dijkstra_kernel``
  workload, scaled down) gives the per-pair routing work it would dilute
  into.

The asserted quantity is the worst-case overhead percentage: one
iteration of the *shipped* guard pattern (``if events_on: emit(...)``
with the flag down, exactly what ``route_shard`` runs per pair) against
the tree-build work amortized over that source's pairs.  The loop
harness cost is charged to the guard rather than subtracted, and routing
a pair does oracle lookups and table walks on top of the amortized tree
build, so passing here bounds the true overhead from above.  The bar is
<2%.  A bare disabled ``emit()`` call is also timed for the record — it
prices the per-shard bracket events, which are O(shards), not O(pairs).
"""

import random
import time

from conftest import record
from repro.algebra import ShortestPath
from repro.graphs import assign_random_weights, erdos_renyi
from repro.graphs.weighting import WEIGHT_ATTR
from repro.obs import events
from repro.obs.metrics import disable, enable, enabled
from repro.paths.dijkstra import compile_graph, preferred_path_tree

N = 512
SOURCES = 8
MAX_WEIGHT = 16
EMIT_CALLS = 200_000
REPEATS = 3
MAX_OVERHEAD_PCT = 2.0


def _disabled_emit_cost():
    """Best-of-``REPEATS`` per-call seconds for a disabled ``emit()``."""
    assert not enabled()
    emit = events.emit
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(EMIT_CALLS):
            emit("shard_heartbeat", pairs_done=0, pairs_total=0)
        best = min(best, time.perf_counter() - start)
    return best / EMIT_CALLS


def _disabled_guard_cost():
    """Per-iteration seconds for the hot-loop guard with telemetry off.

    This is the exact pattern ``route_shard`` runs per routed pair: a
    local-boolean test that short-circuits the heartbeat bookkeeping.
    Loop overhead is deliberately charged to the guard (conservative).
    """
    assert not enabled()
    events_on = enabled()
    emit = events.emit
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(EMIT_CALLS):
            if events_on:
                emit("shard_heartbeat", pairs_done=0, pairs_total=0)
        best = min(best, time.perf_counter() - start)
    return best / EMIT_CALLS


def _tree_sweep_cost():
    """Best-of-``REPEATS`` per-source seconds for a kernel tree sweep."""
    algebra = ShortestPath(max_weight=MAX_WEIGHT)
    rng = random.Random(61)
    graph = erdos_renyi(N, rng=rng)
    assign_random_weights(graph, algebra, rng=random.Random(62))
    sources = sorted(random.Random(63).sample(sorted(graph.nodes()), SOURCES))
    compiled = compile_graph(graph, WEIGHT_ATTR)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for source in sources:
            preferred_path_tree(graph, algebra, source, compiled=compiled)
        best = min(best, time.perf_counter() - start)
    return best / SOURCES


def test_disabled_events_are_free():
    was_enabled = enabled()
    disable()
    try:
        per_guard = _disabled_guard_cost()
        per_emit = _disabled_emit_cost()
    finally:
        if was_enabled:
            enable()
    per_source = _tree_sweep_cost()

    # Worst case: one guarded heartbeat check per routed pair, charged
    # against the tree-build work amortized over the (N - 1) pairs it
    # serves.
    per_pair = per_source / (N - 1)
    overhead_pct = 100.0 * per_guard / per_pair

    record(
        "event_overhead",
        [
            f"disabled hot-loop guard: {per_guard * 1e9:.0f}ns/pair; "
            f"bare disabled emit(): {per_emit * 1e9:.0f}ns/call "
            f"(best of {REPEATS}x{EMIT_CALLS:,})",
            f"kernel tree sweep: {per_source * 1e3:.2f}ms/source at n={N} "
            f"-> {per_pair * 1e6:.2f}us amortized per pair",
            f"worst-case disabled overhead: {overhead_pct:.3f}% per pair "
            f"(bar: <{MAX_OVERHEAD_PCT}%)",
        ],
        data={
            "n": N,
            "sources": SOURCES,
            "emit_calls": EMIT_CALLS,
            "disabled_guard_ns": per_guard * 1e9,
            "disabled_emit_ns": per_emit * 1e9,
            "tree_build_ms_per_source": per_source * 1e3,
            "disabled_overhead_pct": overhead_pct,
        },
    )

    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"disabled hot-loop guard costs {per_guard * 1e9:.0f}ns against "
        f"{per_pair * 1e6:.2f}us of per-pair work — {overhead_pct:.2f}% "
        f"overhead (bar: {MAX_OVERHEAD_PCT}%)"
    )
