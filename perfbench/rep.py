"""One cold repetition of a workload, in a fresh interpreter.

Usage::

    python3 perfbench/rep.py --workload NAME --seed N [--spans FILE]

Generates one input instance of the workload from the seed, then times
the work and checks its outputs.  Prints one JSON object: the timings
(at reference speed, see ``speed.py``, with the wall seconds beside
them) and counts of this repetition, the output checks, a digest of
the outputs, and the engines that ran.  With ``--spans`` the layer
entry points are traced, the spans are written to FILE, and per-layer
metrics are added.

``run.py`` starts one of these per repetition, because the oracle cache
and the ``compile_query`` memo are process-wide and would warm later
repetitions in one process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    PROTOCOL_SETUPS,
    REQUEST_PAIRS,
    ROUTES_PER_UPDATE,
    SERVICE_CYCLES,
    WORKLOADS,
)


def make_inputs(workload, seed):
    """The workload's algebra and weighted topology, from *seed* alone."""
    from repro.algebra.catalog import ShortestPath, WidestPath
    from repro.graphs.generators import FAMILIES, barabasi_albert
    from repro.graphs.weighting import assign_random_weights

    if workload.policy == "widest-path":
        algebra = WidestPath()
    elif workload.max_weight is not None:
        algebra = ShortestPath(max_weight=workload.max_weight)
    else:
        algebra = ShortestPath()
    rng = random.Random(seed)
    if workload.topology == "barabasi-albert":
        graph = barabasi_albert(workload.n, m=workload.m, rng=rng)
    else:
        graph = FAMILIES[workload.topology](workload.n, rng)
    assign_random_weights(graph, algebra, rng=rng)
    return algebra, graph


def request_batches(nodes, count, seed):
    """*count* batches of seeded uniform ordered pairs (source != target)."""
    rng = random.Random(seed * 7919 + 17)
    batches = []
    for _ in range(count):
        batch = []
        while len(batch) < REQUEST_PAIRS:
            s, t = rng.choice(nodes), rng.choice(nodes)
            if s != t:
                batch.append((s, t))
        batches.append(batch)
    return batches


def digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engines():
    from repro.paths.batch import numpy_available
    from repro.paths.kernel import resolve_engine
    from repro.routing.query_engine import resolve_query_engine

    return {"path_engine": resolve_engine(),
            "query_engine": resolve_query_engine(),
            "numpy": numpy_available()}


# ---------------------------------------------------------------------------
# experiments: build_scheme + evaluate_scheme over all ordered pairs
# ---------------------------------------------------------------------------


def run_experiment_rep(workload, seed, traced):
    if traced:
        # Before the imports below bind the entry points to local names.
        layertrace.install()
    from repro.core.compiler import build_scheme
    from repro.core.parallel import last_run_info
    from repro.core.simulate import EvaluationOptions, evaluate_scheme, oracle_cache
    from repro.routing.query_engine import query_stats

    algebra, graph = make_inputs(workload, seed)
    tracer = layertrace.TRACER
    before = query_stats()

    with SpeedProbe(follow=(workload.workers or 0) <= 1) as speed:
        root = tracer.open("rep.run")
        start = time.monotonic()
        rng = random.Random(seed + 1)
        scheme = build_scheme(graph, algebra, mode=workload.mode, rng=rng)
        built = time.monotonic()
        report = evaluate_scheme(graph, algebra, scheme,
                                 options=EvaluationOptions(
                                     rng=rng, workers=workload.workers))
        done = time.monotonic()
        tracer.close(root)
    after = query_stats()
    info = last_run_info()
    trees_built = oracle_cache.stats()["trees_built"]

    failed = report.pairs - report.delivered
    checks = {"all_pairs_routed": report.pairs == graph.number_of_nodes() * (
        graph.number_of_nodes() - 1)}
    if workload.mode == "compact":
        # Thm 3: every pair delivered within stretch 3.
        over = report.stretch.unbounded + (
            report.stretch.pairs - report.stretch.within_3)
        checks["stretch_le_3"] = (report.stretch.max_stretch is not None
                                  and report.stretch.max_stretch <= 3
                                  and over == 0)
        failed += over
    else:
        # Thm 1: tree routing on a selective monotone algebra is exact.
        checks["all_optimal"] = report.optimal == report.pairs
        failed += report.pairs - report.optimal
    checks["all_delivered"] = report.delivered == report.pairs

    out = {
        "setup_s": speed.seconds(start, built),
        "run_s": speed.seconds(start, done),
        "raw_s": {"setup": built - start, "run": done - start},
        "probe_ms": speed.loop_ms(),
        "pairs": report.pairs,
        "delivered": report.delivered,
        "optimal": report.optimal,
        "table_bits_max": report.memory.max_bits,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": report.pairs,
        "failed": failed,
        "checks": checks,
        "digest": digest(report.scheme_name, report.pairs, report.delivered,
                         report.optimal, report.stretch, report.memory.max_bits,
                         report.memory.total_bits, report.failures),
        "provenance": dict(
            engines(),
            n=graph.number_of_nodes(), m=graph.number_of_edges(),
            pairs=report.pairs, scheme=report.scheme_name,
            start_method=(info.start_method if info else "serial"),
            parallel_fallback=(info.fallback.reason
                               if info and info.fallback else None),
            query_fallbacks=after["fallbacks"],
            oracle_trees_built=trees_built,
        ),
    }
    if traced:
        spans = layertrace.within(tracer.spans, [root[0]])
        query = {key: after[key] - before[key] + layertrace.WORKER_QUERY[key]
                 for key in ("batch_pairs", "reference_pairs")}
        out["layers"] = layertrace.layer_metrics(spans, info, query)
    return out


# ---------------------------------------------------------------------------
# service: `repro serve` over TCP, closed loop with link churn
# ---------------------------------------------------------------------------


class Client:
    """One JSONL connection; every response line is kept for the digest."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=120)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.lines = []

    def call(self, request):
        self.sock.sendall((json.dumps(request) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        self.lines.append(line)
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def non_bridge_edges(graph, count, seed):
    import networkx as nx

    bridges = {frozenset(edge) for edge in nx.bridges(graph)}
    candidates = sorted(tuple(sorted(edge)) for edge in graph.edges()
                        if frozenset(edge) not in bridges)
    return random.Random(seed * 31 + 5).sample(candidates, count)


def start_server(workload, seed, spans_path, speed):
    command = [sys.executable, os.path.join(HERE, "serve.py")]
    if spans_path:
        command += ["--spans", spans_path]
    command += ["serve", workload.policy, "--topology", workload.topology,
                "--n", str(workload.n), "--seed", str(seed), "--port", "0"]
    if workload.mode == "compact":
        command.append("--compact")
    launched = time.monotonic()
    server = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT)
    speed.follow(server.pid)
    for line in server.stderr:
        if line.startswith("listening on "):
            host, port = line.split()[-1].rsplit(":", 1)
            return server, launched, time.monotonic(), host, int(port)
    server.wait()
    raise RuntimeError(f"server exited with code {server.returncode} "
                       f"before listening")


def run_service_rep(workload, seed, spans_path):
    from repro.algebra.catalog import ShortestPath
    from repro.graphs.generators import FAMILIES
    from repro.graphs.weighting import assign_random_weights

    # The same topology `repro serve --seed` builds, for choosing pairs
    # and non-bridge links on the client side.
    rng = random.Random(seed)
    graph = FAMILIES[workload.topology](workload.n, rng)
    assign_random_weights(graph, ShortestPath(), rng=rng)
    nodes = sorted(graph.nodes())
    links = non_bridge_edges(graph, SERVICE_CYCLES, seed)
    batches = iter(request_batches(
        nodes, SERVICE_CYCLES * 2 * (ROUTES_PER_UPDATE - 1), seed))
    probe = request_batches(nodes, 1, seed + 104729)[0]

    requests = failed = delivered = optimal = answered = 0
    # (start, end) monotonic times of each request, per kind.
    route_at, reroute_at, update_at = [], [], []
    probe_mismatches = 0
    client = None
    stopped = False
    with SpeedProbe(follow=True) as speed:
        server, launched, listening, host, port = start_server(
            workload, seed, spans_path, speed)
        try:
            client = Client(host, port)

            def call(request, samples):
                nonlocal requests, failed, delivered, optimal, answered
                t0 = time.monotonic()
                response = client.call(request)
                t1 = time.monotonic()
                requests += 1
                if not response.get("ok"):
                    failed += 1
                    return response
                if samples is not None:
                    samples.append((t0, t1))
                if request["op"] == "route":
                    answers = response["result"]["answers"]
                    ok = sum(a["delivered"] for a in answers)
                    delivered += ok
                    optimal += sum(bool(a["optimal"]) for a in answers)
                    answered += len(answers)
                    if ok != len(answers):
                        failed += 1
                return response

            def route(pairs, samples):
                return call({"op": "route", "pairs": [list(p) for p in pairs]},
                            samples)

            # Untimed warm-up: one request that touches every source.  Its
            # failures count; its pairs do not count into the loop's.
            route([(s, nodes[(i + 1) % len(nodes)])
                   for i, s in enumerate(nodes)], None)
            delivered = optimal = answered = 0

            start = time.monotonic()
            baseline = route(probe, route_at).get("result")
            for u, v in links:
                call({"op": "fail_link", "u": u, "v": v}, update_at)
                route(next(batches), reroute_at)
                for _ in range(ROUTES_PER_UPDATE - 2):
                    route(next(batches), route_at)
                route(probe, route_at)
                call({"op": "restore_link", "u": u, "v": v}, update_at)
                # The restored topology is the one the baseline probe saw:
                # the answers must be identical.
                if route(probe, reroute_at).get("result") != baseline:
                    probe_mismatches += 1
                for _ in range(ROUTES_PER_UPDATE - 1):
                    route(next(batches), route_at)
            done = time.monotonic()

            memory = client.call({"op": "memory"})["result"]
            stopped = client.call({"op": "shutdown"})["ok"]
        finally:
            if client is not None:
                client.close()
            if not stopped:
                server.kill()
            _, status, usage = os.wait4(server.pid, 0)
            server.returncode = os.waitstatus_to_exitcode(status)
            server.stderr.close()

    def ms(stretches):
        return [speed.seconds(t0, t1) * 1e3 for t0, t1 in stretches]

    checks = {"all_ok": failed == 0,
              "probe_identical_after_restore": probe_mismatches == 0,
              "server_exit_0": server.returncode == 0}
    out = {
        "setup_s": speed.seconds(launched, listening),
        "run_s": speed.seconds(start, done),
        "raw_s": {"setup": listening - launched, "run": done - start},
        "probe_ms": speed.loop_ms(),
        "pairs": delivered,
        "delivered": delivered,
        "optimal": optimal,
        "route_ms": ms(route_at),
        "reroute_ms": ms(reroute_at),
        "update_ms": ms(update_at),
        "table_bits_max": memory["max_bits"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": requests,
        "failed": failed + probe_mismatches + (server.returncode != 0),
        "checks": checks,
        "digest": digest(client.lines[:-1]),
        "provenance": dict(engines(), n=graph.number_of_nodes(),
                           m=graph.number_of_edges(), pairs=answered,
                           scheme=memory["scheme"], start_method="serial"),
    }
    if spans_path:
        spans = layertrace.load(spans_path)
        out["layers"] = layertrace.service_metrics(spans)
        out["layers"].update(layertrace.layer_metrics(spans))
    return out


# ---------------------------------------------------------------------------
# protocols: path-vector, distance-vector and link-state to convergence
# ---------------------------------------------------------------------------


def run_protocols_rep(workload, seed, traced):
    from repro.protocols.distance_vector import DistanceVectorSimulation
    from repro.protocols.link_state import LinkStateSimulation
    from repro.protocols.path_vector import PathVectorSimulation

    algebra, graph = make_inputs(workload, seed)
    nodes = sorted(graph.nodes())
    if traced:
        layertrace.install()
    tracer = layertrace.TRACER

    with SpeedProbe(follow=True) as speed:
        # Construction takes milliseconds: time it several times and keep
        # the median, then run the last set.
        root = tracer.open("rep.run")
        setups = []
        for _ in range(PROTOCOL_SETUPS):
            start = time.monotonic()
            pv = PathVectorSimulation(graph.copy(), algebra)
            dv = DistanceVectorSimulation(graph.copy(), algebra)
            ls = LinkStateSimulation(graph.copy(), algebra)
            setups.append((start, time.monotonic()))
        pv_report, dv_report, ls_report = pv.run(), dv.run(), ls.run()
        # Link-state routers compute their SPF tree from the flooded database.
        for source in nodes:
            ls.weight(source, source)
        done = time.monotonic()
        tracer.close(root)

    # Link-state runs Dijkstra on the complete database: the exact
    # preferred weights the other two protocols must converge to.
    agree = compared = 0
    for s in nodes:
        for t in nodes:
            if s == t:
                continue
            exact = ls.weight(s, t)
            pv_route = pv.route(s, t)
            compared += 2
            agree += pv_route is not None and algebra.eq(pv_route.weight,
                                                         exact)
            agree += algebra.eq(dv.weight(s, t), exact)

    reports = (pv_report, dv_report, ls_report)
    checks = {"path_vector_converged": pv_report.converged,
              "distance_vector_converged": dv_report.converged,
              "link_state_flooded": ls_report.converged}
    pairs = len(nodes) * (len(nodes) - 1)
    out = {
        "setup_s": statistics.median(speed.seconds(*s) for s in setups),
        "run_s": speed.seconds(start, done),
        "raw_s": {"setup": statistics.median(t1 - t0 for t0, t1 in setups),
                  "run": done - start},
        "probe_ms": speed.loop_ms(),
        "pairs": 3 * pairs,
        "delivered": 3 * pairs,
        "optimal": agree,
        "optimal_of": compared,
        "messages": (pv_report.messages + dv_report.vector_exchanges
                     + ls_report.lsa_transmissions),
        "table_bits_max": max(ls.lsdb_bits(node) for node in nodes),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(reports),
        "failed": sum(not r.converged for r in reports),
        "checks": checks,
        "digest": digest([r.summary() for r in reports], agree),
        "provenance": dict(engines(), n=len(nodes),
                           m=graph.number_of_edges(), pairs=pairs,
                           start_method="serial"),
    }
    if traced:
        spans = layertrace.within(tracer.spans, [root[0]])
        out["layers"] = layertrace.protocol_metrics(spans)
        out["layers"].update(layertrace.layer_metrics(spans))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None,
                        help="trace the layers and write the spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.kind == "service":
        out = run_service_rep(workload, args.seed, args.spans)
    elif workload.kind == "protocols":
        out = run_protocols_rep(workload, args.seed, args.spans is not None)
    else:
        out = run_experiment_rep(workload, args.seed, args.spans is not None)
    if args.spans and workload.kind != "service":
        layertrace.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
