"""End-to-end telemetry: traced routes, evaluation reports, protocols, CLI.

The contract under test is twofold: with telemetry *off* nothing changes
(reports stay bit-identical); with it *on*, the traces faithfully replay
the forwarding simulation and the per-hop header sizes agree with the
Definition 2 accounting in :mod:`repro.routing.memory`.
"""

import json
import random

from repro.algebra import ShortestPath, WidestPath
from repro.cli import main
from repro.core import EvaluationOptions, build_scheme, evaluate_scheme
from repro.graphs import assign_random_weights, erdos_renyi
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import enable, registry
from repro.protocols import PathVectorSimulation
from repro.routing import CowenScheme


def _instance(n=24, seed=0, algebra=None):
    algebra = algebra or ShortestPath(max_weight=9)
    rng = random.Random(seed)
    graph = erdos_renyi(n, rng=rng)
    assign_random_weights(graph, algebra, rng=rng)
    return graph, algebra


class TestTracedRoutes:
    def test_trace_replays_route_path(self):
        graph, algebra = _instance()
        scheme = CowenScheme(graph, algebra, rng=random.Random(1))
        enable()
        nodes = list(graph.nodes())
        with obs_tracing.capture_traces() as capture:
            results = {
                (s, t): scheme.route(s, t)
                for s in nodes[:3] for t in nodes if s != t
            }
        assert len(capture.traces) == len(results)
        for trace in capture.traces:
            result = results[(trace.source, trace.target)]
            assert trace.delivered == result.delivered
            assert trace.path == result.path
            assert trace.hops == result.hops

    def test_per_hop_header_bits_match_memory_accounting(self):
        """Every hop's header costs exactly the target's label bits —
        the scheme never smuggles state outside Definition 2's budget."""
        graph, algebra = _instance()
        scheme = CowenScheme(graph, algebra, rng=random.Random(1))
        enable()
        nodes = list(graph.nodes())
        with obs_tracing.capture_traces() as capture:
            for s in nodes[:3]:
                for t in nodes:
                    if s != t:
                        scheme.route(s, t)
        assert capture.traces
        for trace in capture.traces:
            expected = scheme.label_bits(trace.target)
            for event in trace.events:
                assert event.header_bits == expected

    def test_route_metrics_recorded(self):
        graph, algebra = _instance(n=12)
        scheme = CowenScheme(graph, algebra, rng=random.Random(1))
        enable()
        nodes = list(graph.nodes())
        for t in nodes[1:]:
            scheme.route(nodes[0], t)
        snap = registry().snapshot()
        name = f"route.packets{{scheme={scheme.name}}}"
        assert snap["counters"][name] == len(nodes) - 1
        hops = snap["histograms"][f"route.hops{{scheme={scheme.name}}}"]
        assert hops["count"] == len(nodes) - 1


class TestEvaluateScheme:
    def test_disabled_telemetry_is_invisible(self):
        """The flagship guarantee: reports are identical with obs off."""
        graph, algebra = _instance(n=16)
        scheme = build_scheme(graph, algebra, rng=random.Random(2))
        baseline = evaluate_scheme(graph, algebra, scheme)
        assert baseline.traces == ()

        enable()
        observed = evaluate_scheme(graph, algebra, scheme)
        assert observed == baseline          # traces excluded from equality
        assert observed.traces               # ... but they were captured

    def test_trace_limit_respected(self):
        graph, algebra = _instance(n=16)
        scheme = build_scheme(graph, algebra, rng=random.Random(2))
        enable()
        report = evaluate_scheme(graph, algebra, scheme,
                                 options=EvaluationOptions(trace_limit=3))
        assert len(report.traces) == 3
        # every routed pair beyond the limit is accounted, not silently lost
        assert report.traces_dropped == report.pairs - 3

    def test_traces_dropped_zero_without_limit_pressure(self):
        graph, algebra = _instance(n=8)
        scheme = build_scheme(graph, algebra, rng=random.Random(2))
        enable()
        report = evaluate_scheme(graph, algebra, scheme,
                                 options=EvaluationOptions(trace_limit=10_000))
        assert report.traces_dropped == 0

    def test_callers_capture_wins(self):
        """An explicit capture_traces scope collects the traces itself;
        the report then leaves them alone."""
        graph, algebra = _instance(n=12)
        scheme = build_scheme(graph, algebra, rng=random.Random(2))
        enable()
        with obs_tracing.capture_traces(limit=5) as capture:
            report = evaluate_scheme(graph, algebra, scheme)
        assert len(capture.traces) == 5
        assert report.traces == ()

    def test_build_and_evaluate_emit_spans(self):
        graph, algebra = _instance(n=16, algebra=WidestPath(max_capacity=9))
        enable()
        scheme = build_scheme(graph, algebra, rng=random.Random(2))
        evaluate_scheme(graph, algebra, scheme)
        paths = {record.path for record in obs_tracing.spans()}
        assert "build_scheme" in paths
        assert "oracle" in paths
        assert "route_pairs" in paths
        assert any(path.startswith("build_scheme.") for path in paths)


class TestProtocolTelemetry:
    def test_path_vector_counters_and_churn(self):
        graph, algebra = _instance(n=12)
        enable()
        sim = PathVectorSimulation(graph, algebra)
        sim.run()
        edge = next(iter(graph.edges()))
        sim.fail_edge(*edge)
        sim.run()
        snap = registry().snapshot()
        tags = "{protocol=path-vector}"
        assert snap["counters"][f"protocol.messages{tags}"] > 0
        assert snap["counters"][f"protocol.link_failures{tags}"] == 1
        assert f"protocol.churn_messages{tags}" in snap["counters"]
        assert snap["gauges"][f"protocol.converged{tags}"] == 1


class TestCli:
    def test_profile_emits_valid_json(self, capsys):
        assert main(["profile", "widest-path", "--n", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "widest-path"
        assert payload["report"]["delivered"] == payload["report"]["pairs"]
        assert any(p["path"] == "build_scheme" for p in payload["phases"])
        assert "counters" in payload["metrics"]
        assert "path-vector" in payload["protocols"]

    def test_profile_spans_each_protocol(self, capsys):
        assert main(["profile", "shortest-path", "--n", "12"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ran = sorted(name for name, summary in payload["protocols"].items()
                     if not str(summary).startswith("skipped"))
        assert ran == ["distance-vector", "link-state", "path-vector"]
        spans = [phase for phase in payload["phases"]
                 if phase["path"] == "protocol"]
        assert sorted(phase["tags"]["protocol"] for phase in spans) == ran

    def test_route_json_flag(self, capsys):
        assert main(["route", "widest-path", "--n", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["topology"]["n"] == 12
        assert payload["report"]["scheme"]

    def test_route_trace_flag_prints_hops(self, capsys):
        assert main(["route", "widest-path", "--n", "12", "--trace",
                     "--trace-limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "deliver" in out

    def test_cli_restores_disabled_state(self, capsys):
        from repro.obs.metrics import enabled

        assert not enabled()
        main(["route", "widest-path", "--n", "12", "--trace"])
        capsys.readouterr()
        assert not enabled()

    def test_bad_sizes_exit_cleanly(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["scale", "widest-path", "--sizes", "1,two,3"])
