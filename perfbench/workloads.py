"""Workload definitions for the end-to-end benchmark, with their rationale.

Each workload names its inputs (topology family, size, policy, scheme
mode, worker count); the comment above it says why it is in the
benchmark (``BENCHMARK.json`` carries the one-line form).
``LAYER_MAP`` below records, before any optimisation is measured,
which end-to-end metric each per-layer metric should move on which
workload, and ``PREDICTIONS`` the expected effect of the open ROADMAP
items.  Both are data so that a later change can cite them by name.

Sizes are scaled so that several cold repetitions fit into one timed run
on a 2-CPU machine; each size keeps the property that justifies its
workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    kind: str            # "experiment" | "service" | "protocols"
    topology: str = "barabasi-albert"
    n: int = 0
    m: int = 2
    policy: str = "shortest-path"
    max_weight: Optional[int] = None
    mode: str = "auto"
    workers: Optional[int] = None


WORKLOADS = {
    # The paper's Thm 3 pipeline (generalized Cowen, stretch <= 3) on an
    # internet-like power-law graph, judged the way Krioukov et al. judge
    # stretch-3 schemes.  Scheme build plus the oracle's duplicate
    # per-source trees dominate it, so the tree-store, engine-default and
    # query-engine items all show here.  At n=256 (not the 768 first
    # probed) the build is still half of the run, and a 30-second run
    # covers some ten input instances, enough for a steady median.
    "cowen-allpairs": Workload(
        kind="experiment",
        topology="barabasi-albert", n=256, m=2, policy="shortest-path",
        max_weight=16, mode="compact", workers=None),
    # Thm 1 tree routing: the build is one spanning tree and the batch
    # query engine steps aside (widest keys are not additive), so the work
    # is oracle trees plus the per-pair loop in the process pool.  It is
    # the only workload that measures core.parallel, and the one on which
    # tree-store and query-engine work predict no change.  At n=192 a run
    # covers some ten instances.
    "widest-parallel": Workload(
        kind="experiment",
        topology="erdos-renyi", n=192, policy="widest-path",
        mode="auto", workers=2),
    # `repro serve` over TCP with writes beside reads: every link change
    # dirties the whole scheme, so the first route after it pays a full
    # rebuild (Krioukov, Fall, claffy and Brady name topology change as
    # the weak spot of compact schemes).  At n=96 (not the 256 first
    # probed) a rebuild takes about 0.2 s.  What a route costs after a
    # change depends on the link and on the graph, so a repetition makes
    # six fail/restore cycles and a run covers some six instances.
    "service-churn": Workload(
        kind="service",
        topology="barabasi-albert", n=96, policy="shortest-path",
        mode="compact"),
    # Path-vector, distance-vector and link-state to convergence: without
    # it the protocols layer goes unmeasured, and it dominated the wall
    # clock of `repro profile` in the ROADMAP baseline.  At n=64 (not the
    # 128 first probed) a run covers some fifteen instances.
    "protocols": Workload(
        kind="protocols",
        topology="barabasi-albert", n=64, m=2, policy="shortest-path",
        max_weight=16),
}

#: Pairs per service route request.
REQUEST_PAIRS = 32

#: Service loop: route requests between two link updates.
ROUTES_PER_UPDATE = 15

#: Service loop: fail/restore cycles per repetition.
SERVICE_CYCLES = 6

#: Protocols: constructions timed per repetition (setup_s is their median).
PROTOCOL_SETUPS = 5

#: Per-layer metrics -> {workload: end-to-end metrics they should move}.
#: An empty list predicts no change on that workload.
LAYER_MAP = {
    ("paths.tree_calls", "paths.compile_graph_calls", "paths.tree_s"): {
        "cowen-allpairs": ["setup_s", "run_s"],
        "service-churn": ["service.reroute_p50_ms"],
        "protocols": ["run_s (link-state share)"],
        "widest-parallel": [],
    },
    ("routing.build_scheme_s",): {
        "cowen-allpairs": ["setup_s"],
        "widest-parallel": ["setup_s"],
        "service-churn": ["setup_s", "service.reroute_p50_ms"],
    },
    ("routing.compile_query_s", "routing.query_batch_pairs",
     "routing.query_reference_pairs"): {
        "cowen-allpairs": ["pairs_per_s"],
        # Widest keys are not additive: every pair is a reference pair.
        "widest-parallel": [],
    },
    ("core.oracle_s", "core.oracle_trees_built"): {
        "cowen-allpairs": ["run_s"],
        "widest-parallel": ["run_s"],
        # Trees dropped by invalidation are rebuilt by later queries.
        "service-churn": ["route_p95_ms"],
    },
    ("core.evaluate_s", "core.evaluate_us_per_pair"): {
        "cowen-allpairs": ["run_s"],
        "widest-parallel": ["run_s"],
    },
    ("parallel.shards", "parallel.worker_busy_frac", "parallel.shard_skew",
     "parallel.retries", "parallel.fallbacks"): {
        "widest-parallel": ["run_s"],
    },
    ("service.route_ms", "service.wire_ms"): {
        "service-churn": ["route_p50_ms"],
    },
    ("service.rebuild_s",): {"service-churn": ["service.reroute_p50_ms"]},
    ("service.invalidate_ms", "service.trees_dropped"): {
        "service-churn": ["service.update_p50_ms", "route_p95_ms"],
    },
    ("protocols.path_vector_s", "protocols.distance_vector_s",
     "protocols.link_state_s", "protocols.path_vector_activations"): {
        "protocols": ["run_s", "protocols.messages"],
    },
}

#: Expected effect of each open ROADMAP performance item, per workload.
PREDICTIONS = {
    "one tree store": {
        "cowen-allpairs": "setup_s and run_s fall; paths.tree_calls n "
                          "instead of 2n, paths.compile_graph_calls 1",
        "service-churn": "service.reroute_p50_ms falls",
        "protocols": "link-state share of run_s falls",
        "widest-parallel": "no change",
    },
    "batch by default": {
        "cowen-allpairs": "setup_s and run_s fall",
        "widest-parallel": "no change (widest keys are not additive)",
    },
    "observable fast paths": {
        "cowen-allpairs": "no change with tracing off",
        "widest-parallel": "no change",
    },
}
