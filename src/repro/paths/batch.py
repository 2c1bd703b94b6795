"""Vectorized multi-source batch engine over the compiled CSR arrays.

PR 5's :mod:`repro.paths.kernel` flattened every ``(graph, attr)`` into
CSR arrays, but the sweep itself remained one Python loop per source.
This module removes that loop for **integer-keyed algebras whose key
embedding is exactly additive** (the new
:meth:`~repro.algebra.base.RoutingAlgebra.integer_key_additive`
capability — shortest-path, min-hop, usable-path, and lexicographic
products of such components): *batches* of sources run through one
numpy-vectorized Dial/Bellman-Ford sweep, with distances as ``int64``
matrices (one lane per source), frontiers as boolean masks, and per-lane
parent/weight matrices decoded back to weight objects only at the end.

Bit-identity with the PR 5 kernel
---------------------------------

The bucket kernel settles nodes in non-decreasing key order, FIFO within
a bucket, and builds the ``weight``/``parent`` maps in first-relaxation
order with strict-improvement tie-breaks.  The batch sweep reproduces
all of it exactly, per lane:

* **levels** — the sweep processes distance *levels* in increasing key
  order; a level equals one bucket of the Dial frontier;
* **waves** — within a level, nodes are settled in *waves* ordered by
  the push rank of their current label.  Wave ``j``'s relaxations
  generate wave ``j+1`` (zero-key edges cascade inside a level exactly
  like the kernel's growing bucket; positive-key algebras settle each
  level in one wave), so wave order *is* the kernel's FIFO order;
* **events** — each wave expands its nodes' CSR rows into one flat
  event array whose index order equals the kernel's scan order (settle
  order major, CSR edge order minor).  Per relaxed target the sweep
  keeps the event minimizing ``(candidate key, event rank)`` — exactly
  the label the kernel's sequential strict-improvement scan leaves
  behind — and separately the *first* touching event, which fixes the
  map-insertion (first-relaxation) order;
* **decode** — final labels are integer keys; the algebra's
  :meth:`~repro.algebra.base.RoutingAlgebra.integer_key_weight_fn`
  decodes them back to the weight objects the kernel would have
  produced (the capability promises ``decode(ik(w)) == w``; the plan
  additionally validates the promise on every compiled edge weight).

Eligibility falls back **per algebra**: when the bucket plan is
ineligible, the key embedding is not exactly additive, or numpy is
absent, :class:`~repro.paths.store.TreeStore` fills run the kernel
instead — results are bit-identical either way, which the golden-trace
harness checks with every store tree substituted from this engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.base import RoutingAlgebra
from repro.obs.metrics import enabled as _telemetry_enabled
from repro.obs.metrics import metrics as _telemetry
from repro.paths.kernel import CompiledGraph, KernelRun, KernelStats
from repro.shared_arrays import np as _np
from repro.shared_arrays import numpy_available

#: Lanes per vectorized sweep chunk; source lists longer than this are
#: processed in chunks (the last one ragged), bounding the dense
#: per-chunk matrices at ``batch_size x n`` entries.  128 keeps a
#: chunk's per-wave working set inside typical L2/L3 budgets — wider
#: chunks amortize no better and measurably thrash.
DEFAULT_BATCH_SIZE = 128

#: The unreachable sentinel inside the integer distance matrices.  Far
#: above any reachable key (bucket plans cap key ranges at 2^22) yet far
#: below int64 overflow even after adding an edge key.
_INF = (1 << 60)

#: ``compiled.scratch`` key of the algebra-independent CSR int arrays.
_CSR_KEY = "batch-csr"

#: ``compiled.scratch`` key prefix of per-algebra batch plans.
_PLAN_KEY = "batch-plan"


@dataclass(frozen=True)
class BatchPlan:
    """A validated vectorized-sweep plan for one (compiled graph, algebra).

    ``indptr``/``indices`` are the CSR arrays as ``int64`` numpy arrays
    (shared across algebras via ``compiled.scratch``), ``edge_keys`` the
    per-arc integer keys for this algebra, ``decode`` the key -> weight
    reconstruction, and ``length`` the bucket-range bound inherited from
    the kernel's :class:`~repro.paths.kernel._BucketPlan` (stats only —
    the integer matrices need no bucket arrays).
    """

    length: int
    max_hops: int
    indptr: "object"
    indices: "object"
    edge_keys: "object"
    decode: Callable[[int], object]
    #: True when every weight IS its own integer key (plain-int
    #: additive algebras like shortest-path / min-hop): emission can
    #: then skip the per-node decode call entirely.  Exact additivity
    #: makes path keys plain int sums, so edge-level identity extends
    #: to every reachable label.
    identity_decode: bool = False


@dataclass(frozen=True)
class BatchStats:
    """Counters from one multi-source batch sweep.

    ``relaxations`` counts candidate keys formed (edges scanned toward
    unsettled nodes — the same quantity the kernel counts),
    ``improvements`` counts label updates that survived the per-target
    reduction (the kernel additionally counts improvements later
    overwritten within one bucket, so its ``frontier_pushes`` is an
    upper bound of this), ``levels`` counts distinct settled key values
    summed over chunks.
    """

    sources: int
    chunks: int
    levels: int
    relaxations: int
    improvements: int


def batch_plan(compiled: CompiledGraph, algebra: RoutingAlgebra
               ) -> Optional[BatchPlan]:
    """The vectorized-sweep plan for *algebra*, or None when ineligible.

    Eligibility: numpy importable, the algebra is left-associative, the
    kernel's :meth:`~repro.paths.kernel.CompiledGraph.bucket_plan`
    accepts it (monotone, integer key bound, every edge key in range),
    the embedding declares exact additivity
    (:meth:`~repro.algebra.base.RoutingAlgebra.integer_key_additive`),
    and the declared decode reproduces every compiled edge weight.
    Decisions are memoized per algebra object in ``compiled.scratch``,
    which :meth:`~repro.paths.kernel.CompiledGraph.patch_weight`
    invalidates together with the kernel's own bucket plans.
    """
    if not numpy_available():
        return None
    cached = compiled.scratch.get((_PLAN_KEY, algebra))
    if cached is not None:
        return cached or None
    plan = _make_batch_plan(compiled, algebra)
    compiled.scratch[(_PLAN_KEY, algebra)] = plan if plan is not None else False
    return plan


def _make_batch_plan(compiled, algebra):
    if getattr(algebra, "is_right_associative", False):
        return None
    bucket = compiled.bucket_plan(algebra)
    if bucket is None:
        return None
    max_hops = max(1, len(compiled.nodes) - 1)
    if not algebra.integer_key_additive(max_hops):
        return None
    try:
        decode = algebra.integer_key_weight_fn(max_hops)
    except Exception:
        return None
    # Validate the decode promise on every compiled arc: a capability
    # bug must demote the algebra to the (bit-identical) kernel, never
    # corrupt a sweep.  Spot weight-is-key algebras along the way
    # (``bool`` is excluded: it needs a real decode back from int).
    identity = True
    for key, weight in zip(bucket.edge_keys, compiled.weights):
        if decode(key) != weight:
            return None
        if identity and not (type(weight) is int and weight == key):
            identity = False
    csr = compiled.scratch.get(_CSR_KEY)
    if csr is None:
        csr = (_np.asarray(compiled.indptr, dtype=_np.int64),
               _np.asarray(compiled.indices, dtype=_np.int64))
        compiled.scratch[_CSR_KEY] = csr
    edge_keys = _np.asarray(bucket.edge_keys, dtype=_np.int64)
    return BatchPlan(length=bucket.length, max_hops=max_hops,
                     indptr=csr[0], indices=csr[1], edge_keys=edge_keys,
                     decode=decode, identity_decode=identity)


def batch_tree(compiled: CompiledGraph, algebra: RoutingAlgebra, root,
               plan: Optional[BatchPlan] = None) -> KernelRun:
    """One-source convenience wrapper over :func:`batch_trees`."""
    return batch_trees(compiled, algebra, [root], plan=plan)[0]


def batch_trees(compiled: CompiledGraph, algebra: RoutingAlgebra,
                roots: Sequence, plan: Optional[BatchPlan] = None,
                batch_size: int = DEFAULT_BATCH_SIZE) -> List[KernelRun]:
    """Vectorized sweeps from every root; kernel-identical per-root results.

    Roots are processed in chunks of *batch_size* lanes (the tail chunk
    ragged); each chunk shares one level/wave loop, so the per-level
    numpy work amortizes across its lanes.  Returns one
    :class:`~repro.paths.kernel.KernelRun` per root, in *roots* order —
    ``weight``/``parent`` maps equal to :func:`~repro.paths.kernel.kernel_tree`'s
    for the same root, including dict insertion order.

    Raises ``ValueError`` when the instance has no batch plan — callers
    decide the fallback (see :func:`batch_plan`).
    """
    if plan is None:
        plan = batch_plan(compiled, algebra)
    if plan is None:
        raise ValueError(
            f"no batch plan for {algebra.name!r} on this instance; "
            f"check batch_plan() before calling batch_trees()"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    root_indices = [compiled.node_index[root] for root in roots]
    runs: List[KernelRun] = []
    chunks = 0
    levels = 0
    relaxations = 0
    improvements = 0
    for start in range(0, len(root_indices), batch_size):
        chunk = root_indices[start:start + batch_size]
        dist, parent, touch, touch_inf, chunk_stats = _sweep_chunk(
            compiled, plan, chunk)
        chunks += 1
        levels += chunk_stats[0]
        relaxations += chunk_stats[1]
        improvements += chunk_stats[2]
        stats = KernelStats(engine="batch", relaxations=chunk_stats[1],
                            frontier_pushes=chunk_stats[2], stale_pops=0,
                            bucket_engaged=False, buckets=plan.length)
        runs.extend(_emit_chunk(compiled, plan, dist, parent, touch,
                                touch_inf, len(chunk), stats))
    _emit_batch_stats(BatchStats(sources=len(root_indices), chunks=chunks,
                                 levels=levels, relaxations=relaxations,
                                 improvements=improvements))
    return runs


def _sweep_chunk(compiled, plan, roots) -> Tuple:
    """One dense multi-lane Dial sweep; returns (dist, parent, touch, stats).

    ``dist[lane, v]`` is the integer key of lane ``lane``'s current label
    at node ``v`` (``_INF`` = unreached), ``parent`` the predecessor
    index (-1 = none), ``touch[lane, v]`` the global rank of the first
    relaxation that reached ``v`` (the map-insertion order), and stats a
    ``(levels, relaxations, improvements)`` triple.

    All label state lives in flat ``lanes * n`` arrays indexed by
    ``lane * n + v`` so every gather/scatter is a 1-D ``take``/fancy
    assignment; ``frontier`` mirrors ``dist`` on unsettled nodes and
    ``_INF`` on settled ones, maintained incrementally so level and wave
    selection never rebuild a masked copy of the distance matrix.
    """
    np = _np
    indptr, indices, edge_keys = plan.indptr, plan.indices, plan.edge_keys
    n = len(compiled.nodes)
    lanes_count = len(roots)
    size = lanes_count * n
    # Event ranks are bounded by every lane scanning every arc once, so
    # most chunks can keep rank state (push order, touch order) in
    # int32 — halving both the radix passes of the per-wave FIFO sort
    # and the scatter/gather traffic.  Same idea for the target sort
    # keys, bounded by lanes x nodes.
    rank_bound = lanes_count * (int(edge_keys.size) + 1)
    rank_dtype = np.int32 if rank_bound < (1 << 31) - 1 else np.int64
    touch_inf = (1 << 31) - 1 if rank_dtype is np.int32 else _INF
    group_dtype = np.int32 if size < (1 << 31) else np.int64
    # Label keys are bounded by twice the bucket range (far below
    # 2^31), so the distance state narrows to int32 as well — with its
    # own unreached sentinel above every reachable key.
    key_inf = (1 << 31) - 1 if plan.length < (1 << 30) else _INF
    key_dtype = np.int32 if key_inf < _INF else np.int64
    if edge_keys.size >= (1 << 31):  # pragma: no cover - 2^31+ arcs
        group_dtype = np.int64
    dist = np.full(size, key_inf, dtype=key_dtype)
    parent = np.full(size, -1, dtype=group_dtype)
    push_rank = np.zeros(size, dtype=rank_dtype)
    touch = np.full(size, touch_inf, dtype=rank_dtype)
    settled = np.zeros(size, dtype=bool)
    frontier = np.full(size, key_inf, dtype=key_dtype)
    root_arr = np.asarray(roots, dtype=np.int64)
    lane_base0 = np.arange(lanes_count, dtype=group_dtype) * n
    # Event arrays are built straight in the narrow index width: CSR
    # positions are bounded by the arc count, flat targets by the chunk
    # size, both covered by ``group_dtype``'s guard above.
    indices_idx = indices.astype(group_dtype)
    # Maps each CSR arc position back to its source node, so winner
    # parents are two tiny gathers instead of a per-event search.
    edge_src = np.repeat(np.arange(n, dtype=group_dtype), np.diff(indptr))
    # The root's "distance" seeds candidate keys at 0 (exact additivity:
    # a one-edge path's key is the edge key).  The root stays settled and
    # untouched, so it never reaches the output maps — kernel semantics.
    root_flat = lane_base0 + root_arr
    dist[root_flat] = 0
    settled[root_flat] = True
    # With strictly positive edge keys a level settles in a single wave:
    # no relaxation at level k can produce another level-k label.
    zero_keys = edge_keys.size > 0 and int(edge_keys.min()) == 0
    counters = {"time": 0, "relaxations": 0, "improvements": 0}

    def relax(us, lane_base, base_key):
        """Scan the CSR rows of the wave's nodes — in settle order, all
        carrying label key *base_key* — and fold the generated events
        into dist/parent/push_rank/touch."""
        starts = indptr[us]
        degs = indptr[us + 1] - starts
        ends = np.cumsum(degs)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            return
        # Event index == kernel scan order (settle-order major, CSR edge
        # order minor).
        pos = (np.repeat((starts - (ends - degs)).astype(group_dtype), degs)
               + np.arange(total, dtype=group_dtype))
        targets = np.repeat(lane_base, degs) + indices_idx.take(pos)
        # The kernel counts every edge scanned toward an unsettled node.
        counters["relaxations"] += total - int(
            np.count_nonzero(settled.take(targets)))
        cand = edge_keys.take(pos) + base_key
        # Keep only candidates that beat the target's current label.
        # This is winner- and touch-preserving: the per-target winner
        # minimizes (candidate key, rank), so whenever any event
        # improves, the overall winner is itself improving; targets with
        # no improving event need neither a label nor a touch (unreached
        # targets hold the unreached sentinel, so every live candidate
        # beats them).  Settled targets drop out for free: their final
        # key is <= the level, hence <= every candidate.
        rank = np.flatnonzero(cand < dist.take(targets))
        if rank.size == 0:
            counters["time"] += total
            return
        # Radix-stable sort by target; within a target's group events
        # stay in rank order.
        g = targets.take(rank)
        cand = cand.take(rank)
        order = np.argsort(g, kind="stable")
        gs = g.take(order)
        first = np.empty(gs.size, dtype=bool)
        first[0] = True
        np.not_equal(gs[1:], gs[:-1], out=first[1:])
        bounds = np.flatnonzero(first)
        # The label the kernel's sequential scan leaves on each target
        # is the event minimizing (candidate key, rank): later equal-key
        # candidates are not strict improvements, and intermediate worse
        # labels are overwritten.  Packing the pair into one int64 turns
        # that into a single segmented min over the sorted groups.
        packed = (cand * total + rank).take(order)
        group_min = np.minimum.reduceat(packed, bounds)
        # Every group holds at least one improving event, so its winner
        # improves: no post-hoc label comparison is needed.
        win_cand = group_min // total
        improved = gs.take(bounds)
        counters["improvements"] += improved.size
        dist[improved] = win_cand
        frontier[improved] = win_cand
        win_index = group_min % total
        parent[improved] = edge_src.take(pos.take(win_index))
        push_rank[improved] = counters["time"] + win_index
        # Insertion order: the *first* (lowest-rank) event touching a
        # previously unreached node fixes its position in the maps (the
        # kernel appends on first relaxation, not the final label).
        # Groups are rank-ordered, so each group's head IS its minimum.
        group_touch = rank.take(order.take(bounds))
        fresh = touch.take(improved) == touch_inf
        touch[improved[fresh]] = counters["time"] + group_touch[fresh]
        counters["time"] += total

    relax(root_arr, lane_base0, 0)
    level_count = 0
    while True:
        level = int(frontier.min())
        if level >= key_inf:
            break
        level_count += 1
        while True:
            wave = np.flatnonzero(frontier == level)
            if wave.size == 0:
                break
            # Settle this wave FIFO: stable sort by the (globally
            # monotone) push rank keeps each lane's nodes in push order;
            # the cross-lane interleave is irrelevant to any per-lane
            # result because lanes never share events.
            wave = wave.take(np.argsort(push_rank.take(wave),
                                        kind="stable")).astype(group_dtype)
            settled[wave] = True
            frontier[wave] = key_inf
            lane_base = wave // n * n
            relax(wave - lane_base, lane_base, level)
            if not zero_keys:
                break
            # Zero-key edges may have labeled new nodes at this same
            # level: they form the next wave, exactly like entries
            # appended to the kernel's in-scan bucket.
    return dist, parent, touch, touch_inf, (level_count,
                                            counters["relaxations"],
                                            counters["improvements"])


def _emit_chunk(compiled, plan, dist, parent, touch, touch_inf, lanes_count,
                stats) -> List[KernelRun]:
    """Decode one chunk's flat integer labels into kernel-shaped runs.

    One lexsort over every reached ``(lane, touch rank)`` pair recovers
    all lanes' map-insertion orders at once, and ``tolist()``
    bulk-converts the label arrays to native Python ints, so the
    per-node cost is a few C-level dict inserts rather than per-lane
    numpy calls and scalar boxing.
    """
    np = _np
    nodes = compiled.nodes
    decode = plan.decode
    n = len(nodes)
    # Object-array gathers map every reached label of the whole chunk
    # back to node objects in two C-level passes (``np.array`` would
    # try to broadcast tuple-keyed nodes; the empty/fill idiom doesn't).
    node_objs = np.empty(n, dtype=object)
    node_objs[:] = nodes
    reached = np.flatnonzero(touch != touch_inf)
    lane_of = reached // n
    reached = reached.take(np.lexsort((touch.take(reached), lane_of)))
    touched_nodes = node_objs.take(reached % n).tolist()
    keys = dist.take(reached).tolist()
    parent_nodes = node_objs.take(parent.take(reached)).tolist()
    splits = np.cumsum(np.bincount(lane_of, minlength=lanes_count)).tolist()
    runs: List[KernelRun] = []
    start = 0
    for stop in splits:
        node_list = touched_nodes[start:stop]
        weight_map: Dict = dict(zip(node_list, keys[start:stop])
                                if plan.identity_decode else
                                zip(node_list, map(decode, keys[start:stop])))
        parent_map: Dict = dict(zip(node_list, parent_nodes[start:stop]))
        runs.append(KernelRun(weight=weight_map, parent=parent_map,
                              stats=stats))
        start = stop
    return runs


def _emit_batch_stats(stats: BatchStats) -> None:
    """Record one sweep's counters on the telemetry registry (when enabled).

    Counter names: ``path_engine.batch_sweeps``,
    ``path_engine.batch_sources``, ``path_engine.batch_levels``,
    ``path_engine.batch_relaxations``, ``path_engine.batch_improvements``
    — plus ``path_engine.runs{engine=batch}`` so per-source run totals
    stay comparable across engines.  See ``docs/PERFORMANCE.md``.
    """
    if not _telemetry_enabled():
        return
    registry = _telemetry()
    registry.counter("path_engine.runs", engine="batch").inc(stats.sources)
    registry.counter("path_engine.batch_sweeps").inc()
    registry.counter("path_engine.batch_sources").inc(stats.sources)
    registry.counter("path_engine.batch_levels").inc(stats.levels)
    registry.counter("path_engine.batch_relaxations").inc(stats.relaxations)
    registry.counter("path_engine.batch_improvements").inc(stats.improvements)
