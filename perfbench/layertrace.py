"""In-memory span tracing around the public entry points of each layer.

:func:`install` wraps functions and methods of ``repro`` from outside the
package: every module attribute bound to a wrapped function is rebound,
so callers that imported the name directly are traced too.  Each call
records one span (name, start, end, parent, numbers noted from its
arguments or result).  Spans stay in memory until :func:`dump` writes
them at the end of a repetition; :func:`layer_metrics` derives per-layer
counts, times and self times from them.

Under the ``fork`` start method the pool workers inherit the wrappers;
each shard's spans ride back on its result and are re-parented under the
parent's ``parallel.evaluate_sharded`` span.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time


class Tracer:
    """Spans as ``[id, parent, name, start, end, notes]`` lists."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._next_id = 1

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self):
        self.spans = []
        self._local = threading.local()

    def open(self, name):
        stack = self._stack()
        span = [self._next_id, stack[-1][0] if stack else None, name,
                time.perf_counter(), None, {}]
        self._next_id += 1
        stack.append(span)
        return span

    def close(self, span):
        span[4] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def adopt(self, spans, parent):
        """Append spans recorded elsewhere, re-numbered, roots under *parent*."""
        mapping = {}
        for span in sorted(spans, key=lambda s: s[3]):
            mapping[span[0]] = self._next_id
            self._next_id += 1
        for span in spans:
            self.spans.append([mapping[span[0]],
                               mapping.get(span[1], parent),
                               span[2], span[3], span[4], span[5]])


TRACER = Tracer()


def _wrap(name, fn, note=None, prepare=None):
    """*fn* inside a span; ``note(args, kwargs, result, prepared)`` adds numbers."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        prepared = prepare(args) if prepare is not None else None
        span = TRACER.open(name)
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                span[5].update(note(args, kwargs, result, prepared))
            return result
        finally:
            TRACER.close(span)

    return traced


def _rebind(original, replacement):
    """Point every ``repro`` module attribute bound to *original* at *replacement*."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module, attr, name, note=None):
    original = getattr(module, attr)
    _rebind(original, _wrap(name, original, note))


def _wrap_method(cls, attr, name, note=None, prepare=None):
    setattr(cls, attr, _wrap(name, getattr(cls, attr), note, prepare))


def install():
    """Wrap the entry points of paths, routing, core, parallel, service, protocols."""
    import repro.cli  # noqa: F401  (imports every layer the CLI reaches)
    from repro.core import compiler, parallel, simulate
    from repro.paths import batch, dijkstra, kernel
    from repro.protocols import distance_vector, link_state, path_vector
    from repro.routing import compiled_query
    from repro.routing import query_engine
    from repro.service import service, wire

    _wrap_function(dijkstra, "preferred_path_tree", "paths.preferred_path_tree")
    _wrap_function(kernel, "compile_graph", "paths.compile_graph")
    _wrap_function(batch, "batch_trees", "paths.batch_trees",
                   note=lambda a, k, r, _: {"sources": len(r)})
    _wrap_function(compiler, "build_scheme", "routing.build_scheme")
    _wrap_function(compiled_query, "compile_query", "routing.compile_query")
    _wrap_function(simulate, "evaluate_scheme", "core.evaluate_scheme",
                   note=lambda a, k, r, _: {"pairs": r.pairs})
    oracle = simulate.PreferredWeightOracle
    _wrap_method(oracle, "ensure_sources", "core.ensure_sources",
                 prepare=lambda a: a[0].trees_built,
                 note=lambda a, k, r, before: {
                     "trees_built": a[0].trees_built - before})
    _wrap_method(oracle, "invalidate_edge", "core.invalidate_edge")
    _wrap_function(parallel, "evaluate_sharded", "parallel.evaluate_sharded")
    _install_shard_harvest(parallel, query_engine)

    routing_service = service.RoutingService
    _wrap_method(routing_service, "route", "service.route")
    for op in ("fail_link", "restore_link"):
        _wrap_method(routing_service, op, f"service.{op}",
                     note=lambda a, k, r, _: {"trees_dropped": r.trees_dropped})
    _wrap_function(wire, "handle_line", "service.handle_line")

    _wrap_method(path_vector.PathVectorSimulation, "run",
                 "protocols.path_vector",
                 note=lambda a, k, r, _: {"activations": r.activations})
    _wrap_method(distance_vector.DistanceVectorSimulation, "run",
                 "protocols.distance_vector")
    _wrap_method(link_state.LinkStateSimulation, "run",
                 "protocols.link_state")


def _install_shard_harvest(parallel, query_engine):
    """Carry each worker shard's spans and query counts back to the parent."""
    run_shard = parallel._run_shard

    @functools.wraps(run_shard)
    def traced_run_shard(task):
        TRACER.reset()
        before = query_engine.query_stats()
        span = TRACER.open("parallel.shard")
        try:
            result = run_shard(task)
        finally:
            TRACER.close(span)
        after = query_engine.query_stats()
        result.perfbench = {
            "spans": TRACER.spans,
            "batch_pairs": after["batch_pairs"] - before["batch_pairs"],
            "reference_pairs": (after["reference_pairs"]
                                - before["reference_pairs"]),
        }
        return result

    record = parallel._record_shard_timings

    @functools.wraps(record)
    def harvesting_record(shards, results, run_info):
        parent = TRACER.current()
        for result in results:
            carried = result.__dict__.pop("perfbench", None)
            if carried is None:
                continue
            TRACER.adopt(carried["spans"], parent)
            WORKER_QUERY["batch_pairs"] += carried["batch_pairs"]
            WORKER_QUERY["reference_pairs"] += carried["reference_pairs"]
        return record(shards, results, run_info)

    _rebind(run_shard, traced_run_shard)
    _rebind(record, harvesting_record)


#: Query-engine pair counts reported by pool workers (their process-local
#: ``query_stats()`` never reaches the parent).
WORKER_QUERY = {"batch_pairs": 0, "reference_pairs": 0}


def dump(path):
    """Write the spans as JSON lines: id, parent, name, start, end, notes."""
    with open(path, "w", encoding="utf-8") as out:
        for span in TRACER.spans:
            out.write(json.dumps(span) + "\n")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

LAYERS = ("paths", "routing", "core", "parallel", "service", "protocols")


def _layer(name):
    return name.split(".", 1)[0]


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans):
    """Per-layer self time: each span minus the union of its children."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        covered = _union_length(children.get(span[0], ()), span[3], span[4])
        layer = _layer(span[2])
        if layer in out:
            out[layer] += max(0.0, span[4] - span[3] - covered)
    return out


def within(spans, root_ids):
    """The spans below (and including) the spans in *root_ids*."""
    keep = set(root_ids)
    out = []
    for span in sorted(spans, key=lambda s: s[3]):
        if span[0] in keep or span[1] in keep:
            keep.add(span[0])
            out.append(span)
    return out


def _outermost(spans, prefix):
    """Spans named with *prefix* that have no ancestor with that prefix."""
    by_id = {span[0]: span for span in spans}
    out = []
    for span in spans:
        if not span[2].startswith(prefix):
            continue
        parent = by_id.get(span[1])
        nested = False
        while parent is not None:
            if parent[2].startswith(prefix):
                nested = True
                break
            parent = by_id.get(parent[1])
        if not nested:
            out.append(span)
    return out


def _total(spans):
    return sum(span[4] - span[3] for span in spans)


def _named(spans, name):
    return [span for span in spans if span[2] == name]


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, parallel_info=None, query=None):
    """Per-layer metrics of one traced repetition (see BENCHMARK.json)."""
    trees = _named(spans, "paths.preferred_path_tree")
    batch = _named(spans, "paths.batch_trees")
    ensure = _named(spans, "core.ensure_sources")
    evaluate = _named(spans, "core.evaluate_scheme")
    evaluate_s = _total(evaluate)
    pairs = sum(span[5].get("pairs", 0) for span in evaluate)
    out = {
        "paths.tree_calls": len(trees) + sum(s[5].get("sources", 0)
                                             for s in batch),
        "paths.compile_graph_calls": len(_named(spans, "paths.compile_graph")),
        "paths.tree_s": _total(_outermost(spans, "paths.")),
        "routing.build_scheme_s": _total(
            _outermost(spans, "routing.build_scheme")),
        "routing.compile_query_s": _total(
            _named(spans, "routing.compile_query")),
        "routing.query_batch_pairs": (query or {}).get("batch_pairs", 0),
        "routing.query_reference_pairs": (query or {}).get(
            "reference_pairs", 0),
        "core.oracle_s": _total(_outermost(spans, "core.ensure_sources")),
        "core.oracle_trees_built": sum(s[5].get("trees_built", 0)
                                       for s in ensure),
        "core.evaluate_s": evaluate_s,
        "core.evaluate_us_per_pair": (evaluate_s / pairs * 1e6
                                      if pairs else 0.0),
    }
    out.update(parallel_metrics(spans, parallel_info))
    for layer, value in self_times(spans).items():
        out[f"{layer}.self_s"] = value
    return out


def parallel_metrics(spans, info):
    """Shard count, busy share, skew, retries and fallbacks of a pool run."""
    out = {"parallel.shards": 0, "parallel.worker_busy_frac": 0.0,
           "parallel.shard_skew": 0.0, "parallel.retries": 0,
           "parallel.fallbacks": 0}
    if info is None:
        return out
    durations = [shard["duration_s"] or 0.0 for shard in info.shards]
    wall = _total(_named(spans, "parallel.evaluate_sharded"))
    out["parallel.shards"] = len(durations)
    if durations and wall > 0 and info.workers:
        out["parallel.worker_busy_frac"] = sum(durations) / (
            info.workers * wall)
        middle = statistics.median(durations)
        out["parallel.shard_skew"] = (max(durations) / middle
                                      if middle > 0 else 0.0)
    out["parallel.retries"] = sum(shard.get("retries", 0)
                                  for shard in info.shards)
    out["parallel.fallbacks"] = int(info.fallback is not None)
    return out


def service_metrics(spans):
    """Server-side service metrics of one traced repetition."""
    by_id = {span[0]: span for span in spans}
    routes = _named(spans, "service.route")
    route_ids = {span[0] for span in routes}
    wire = []
    for line in _named(spans, "service.handle_line"):
        inner = [s for s in routes if s[1] == line[0]]
        if inner:
            wire.append(_total([line]) - _total(inner))
    rebuilds = []
    for span in _named(spans, "routing.build_scheme"):
        parent = by_id.get(span[1])
        while parent is not None and parent[0] not in route_ids:
            parent = by_id.get(parent[1])
        if parent is not None:
            rebuilds.append(_total([span]))
    updates = (_named(spans, "service.fail_link")
               + _named(spans, "service.restore_link"))
    return {
        "service.route_ms": _median([_total([s]) * 1e3 for s in routes]),
        "service.wire_ms": _median([w * 1e3 for w in wire]),
        "service.rebuild_s": _median(rebuilds),
        "service.invalidate_ms": _median(
            [_total([s]) * 1e3
             for s in _named(spans, "core.invalidate_edge")]),
        "service.trees_dropped": sum(s[5].get("trees_dropped", 0)
                                     for s in updates),
        "service.scheme_builds": len(_outermost(spans,
                                                "routing.build_scheme")),
    }


def protocol_metrics(spans):
    """Per-simulation run times and path-vector activations."""
    pv = _named(spans, "protocols.path_vector")
    return {
        "protocols.path_vector_s": _total(pv),
        "protocols.distance_vector_s": _total(
            _named(spans, "protocols.distance_vector")),
        "protocols.link_state_s": _total(
            _named(spans, "protocols.link_state")),
        "protocols.path_vector_activations": sum(
            s[5].get("activations", 0) for s in pv),
    }
