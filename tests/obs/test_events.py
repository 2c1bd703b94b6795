"""Unit tests for the run-event stream (repro.obs.events)."""

import io
import random

import pytest

from repro.obs import events
from repro.obs.metrics import enable, enabled


class TestEmitGating:
    def test_disabled_emit_is_a_noop(self):
        assert not enabled()
        assert events.emit("run_started", command="x") is None
        assert events.events() == []

    def test_disabled_emit_skips_kind_validation(self):
        # The disabled path must do nothing but the flag test — not even
        # validate — so the hot loop pays a single flag read.
        assert events.emit("definitely_not_a_kind") is None

    def test_enabled_emit_appends(self):
        enable()
        event = events.emit("run_started", command="evaluate", pairs_total=10)
        assert event is not None
        assert event.kind == "run_started"
        assert event.data == {"command": "evaluate", "pairs_total": 10}
        assert events.events() == [event]

    def test_enabled_emit_rejects_unknown_kind(self):
        enable()
        with pytest.raises(ValueError, match="unknown run-event kind"):
            events.emit("made_up_kind")

    def test_telemetry_switch_alone_records_run_events(self):
        """Events have no switch of their own: ``obs.enable()`` is it."""
        import repro.obs as obs
        from repro.algebra.catalog import ShortestPath
        from repro.core.simulate import evaluate_scheme, oracle_cache
        from repro.core.compiler import build_scheme
        from repro.graphs.generators import erdos_renyi
        from repro.graphs.weighting import assign_random_weights

        algebra = ShortestPath()
        graph = erdos_renyi(10, rng=random.Random(3))
        assign_random_weights(graph, algebra, rng=random.Random(4))
        obs.enable()
        try:
            evaluate_scheme(graph, algebra, build_scheme(graph, algebra))
        finally:
            oracle_cache.clear()
        kinds = {event.kind for event in events.events()}
        assert {"phase_entered", "phase_exited", "oracle_trees_built",
                "shard_heartbeat"} <= kinds


class TestShardTagging:
    def test_current_shard_tags_events(self):
        enable()
        events.set_current_shard(3)
        tagged = events.emit("shard_heartbeat", pairs_done=1, pairs_total=2)
        assert tagged.shard == 3
        explicit = events.emit("shard_completed", shard=7, pairs=2)
        assert explicit.shard == 7
        events.set_current_shard(None)
        untagged = events.emit("run_finished")
        assert untagged.shard is None


class TestLogHandoff:
    def test_swap_log_detaches_buffer(self):
        enable()
        events.emit("shard_heartbeat", pairs_done=0, pairs_total=4)
        detached = events.swap_log()
        assert len(detached) == 1
        assert events.events() == []  # fresh log installed
        events.emit("shard_completed", pairs=4)
        assert len(events.events()) == 1
        # The parent folds detached buffers back in shard order.
        events.extend_events(detached.events)
        assert [e.kind for e in events.events()] == [
            "shard_completed", "shard_heartbeat"]

    def test_reset_worker_clears_inherited_state(self):
        enable()
        events.set_current_shard(5)
        events.set_live_consumer(lambda event: None)
        events.emit("shard_heartbeat", pairs_done=1, pairs_total=1)
        events.reset_worker()
        assert events.events() == []
        assert events.current_shard() is None
        assert events.live_consumer() is None
        assert enabled()  # the flag survives (fork inherits it)


class TestLivePath:
    def test_live_consumer_sees_durable_and_live_events(self):
        enable()
        seen = []
        events.set_live_consumer(seen.append)
        events.emit("shard_heartbeat", pairs_done=1, pairs_total=4)
        events.emit("shard_heartbeat", durable=False,
                    pairs_done=2, pairs_total=4)
        assert [e.data["pairs_done"] for e in seen] == [1, 2]
        # Only the durable one landed in the log.
        assert [e.data["pairs_done"] for e in events.events()] == [1]

    def test_broken_consumer_never_raises(self):
        enable()

        def explode(event):
            raise RuntimeError("renderer died")

        events.set_live_consumer(explode)
        assert events.emit("run_started").kind == "run_started"

    def test_full_live_queue_drops_silently(self):
        class FullQueue:
            def put_nowait(self, event):
                raise RuntimeError("queue full")

        enable()
        events.set_live_queue(FullQueue())
        try:
            assert events.emit("run_started") is not None
            assert len(events.events()) == 1
        finally:
            events.set_live_queue(None)


class TestStragglers:
    def test_detect_stragglers_flags_outliers(self):
        median, flagged = events.detect_stragglers(
            [1.0, 1.1, 0.9, 10.0], factor=4.0)
        assert median == 1.0
        assert flagged == [3]

    def test_no_stragglers_in_uniform_durations(self):
        median, flagged = events.detect_stragglers([1.0, 1.0, 1.0])
        assert median == 1.0
        assert flagged == []

    def test_empty_durations(self):
        assert events.detect_stragglers([]) == (0.0, [])

    def test_zero_factor_flags_everything_positive(self):
        _median, flagged = events.detect_stragglers([0.5, 0.7], factor=0.0)
        assert flagged == [0, 1]


class TestCodecAndPersistence:
    def test_event_dict_roundtrip(self):
        enable()
        original = events.emit("shard_completed", shard=2, pairs=12,
                               duration_s=0.5, routed=12)
        restored = events.event_from_dict(events.event_to_dict(original))
        assert restored == original

    def test_write_and_read_run(self, tmp_path):
        enable()
        events.emit("run_started", command="evaluate", pairs_total=4)
        events.emit("shard_heartbeat", shard=0, pairs_done=0, pairs_total=4)
        events.emit("run_finished", duration_s=0.1)
        manifest = events.build_manifest(
            command="evaluate",
            config={"policy": "shortest-path", "n": 8},
            engine={"start_method": "fork", "workers": 2},
            started_at=100.0, finished_at=100.5,
            shards=[{"shard": 0, "pairs": 4, "duration_s": 0.1}],
            stragglers={"factor": 4.0, "median_s": 0.1, "shards": []},
        )
        manifest_path, events_path = events.write_run(str(tmp_path), manifest)
        assert manifest_path.endswith(events.MANIFEST_FILE)
        assert events_path.endswith(events.EVENTS_FILE)

        run = events.read_run(str(tmp_path))
        assert run["manifest"]["command"] == "evaluate"
        assert run["manifest"]["duration_s"] == 0.5
        assert run["manifest"]["config"]["policy"] == "shortest-path"
        assert [e.kind for e in run["events"]] == [
            "run_started", "shard_heartbeat", "run_finished"]
        assert run["events"] == events.events()

    def test_read_run_without_event_log(self, tmp_path):
        manifest = events.build_manifest(
            command="profile", config={}, engine={},
            started_at=0.0, finished_at=1.0)
        events.write_run(str(tmp_path), manifest, event_records=[])
        (tmp_path / events.EVENTS_FILE).unlink()
        run = events.read_run(str(tmp_path))
        assert run["manifest"]["command"] == "profile"
        assert run["events"] == []

    def test_read_run_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            events.read_run(str(tmp_path))

    def test_manifest_env_fingerprint(self):
        manifest = events.build_manifest(
            command="x", config={}, engine={},
            started_at=5.0, finished_at=4.0)
        assert manifest["duration_s"] == 0.0  # clamped, never negative
        assert "python" in manifest["env"]
        assert "cpu_count" in manifest["env"]
