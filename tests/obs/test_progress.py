"""Unit tests for live progress gating/rendering and the post-hoc report."""

import io
import time

from repro.obs import events
from repro.obs import progress


class _Tty(io.StringIO):
    def isatty(self):
        return True


def _event(kind, shard=None, pid=1000, **data):
    return events.RunEvent(kind=kind, ts=time.time(), pid=pid,
                           shard=shard, data=data)


class TestShouldShowProgress:
    def test_defaults_to_tty_detection(self):
        assert progress.should_show_progress(stream=_Tty())
        assert not progress.should_show_progress(stream=io.StringIO())
        assert not progress.should_show_progress(stream=None)

    def test_explicit_progress_forces_on_without_tty(self):
        assert progress.should_show_progress(progress=True,
                                             stream=io.StringIO())

    def test_quiet_beats_progress(self):
        assert not progress.should_show_progress(progress=True, quiet=True,
                                                 stream=_Tty())

    def test_json_implies_quiet(self):
        assert not progress.should_show_progress(json_mode=True,
                                                 stream=_Tty())
        assert not progress.should_show_progress(progress=True, json_mode=True,
                                                 stream=_Tty())


class TestProgressRenderer:
    def test_tracks_shards_pairs_and_workers(self):
        stream = io.StringIO()
        renderer = progress.ProgressRenderer(stream, total_pairs=8,
                                             label="evaluate")
        for shard in (0, 1):
            renderer.handle(_event("shard_dispatched", shard=shard, pairs=4))
        renderer.handle(_event("shard_heartbeat", shard=0, pid=50,
                               pairs_done=2, pairs_total=4))
        renderer.handle(_event("shard_completed", shard=0, pid=50, pairs=4))
        line = renderer._status_line()
        assert "evaluate" in line
        assert "shards 1/2" in line
        assert "pairs 4/8" in line
        renderer.close(final_line="done")
        output = stream.getvalue()
        assert "\r\x1b[2K" in output
        assert output.endswith("done\n")

    def test_run_started_sets_total(self):
        renderer = progress.ProgressRenderer(io.StringIO())
        renderer.handle(_event("run_started", pairs_total=100))
        assert renderer.total_pairs == 100
        assert "pairs 0/100" in renderer._status_line()

    def test_dead_stream_never_raises(self):
        class DeadStream:
            def write(self, text):
                raise OSError("gone")

            def flush(self):
                raise OSError("gone")

        renderer = progress.ProgressRenderer(DeadStream(), total_pairs=4)
        renderer.handle(_event("shard_heartbeat", shard=0,
                               pairs_done=1, pairs_total=4))
        renderer.close()

    def test_close_is_idempotent(self):
        stream = io.StringIO()
        renderer = progress.ProgressRenderer(stream)
        renderer.close()
        before = stream.getvalue()
        renderer.close(final_line="ignored after close")
        assert stream.getvalue() == before


class TestRenderRunReport:
    def _manifest(self):
        return events.build_manifest(
            command="evaluate",
            config={"policy": "shortest-path", "n": 8, "seed": 0},
            engine={"start_method": "fork", "path_engine": "kernel",
                    "workers": 2},
            started_at=100.0, finished_at=101.5,
            shards=[
                {"shard": 0, "pid": 51, "pairs": 4, "sources": 2,
                 "started_at": 100.1, "duration_s": 0.2, "straggler": False},
                {"shard": 1, "pid": 52, "pairs": 4, "sources": 2,
                 "started_at": 100.1, "duration_s": 1.2, "straggler": True},
            ],
            stragglers={"factor": 4.0, "median_s": 0.2, "shards": [1]},
            counters={"counters": {"evaluate.pairs": 8}},
            spans=[
                {"path": "route_pairs_parallel", "duration_s": 1.4},
                {"path": "route_pairs_parallel.route_pairs",
                 "duration_s": 0.2},
                {"path": "route_pairs_parallel.route_pairs",
                 "duration_s": 1.2},
            ],
            report={"scheme": "destination-table", "pairs": 8,
                    "delivered": 8, "optimal": 8,
                    "stretch": {"max_stretch": 1}},
        )

    def _events(self):
        stream = [
            _event("run_started", pairs_total=8),
            _event("shard_heartbeat", shard=0, pairs_done=0, pairs_total=4),
            _event("shard_heartbeat", shard=0, pairs_done=4, pairs_total=4),
            _event("shard_heartbeat", shard=1, pairs_done=0, pairs_total=4),
            _event("fallback_triggered", reason="unpicklable",
                   cause="PicklingError('lambda')"),
            _event("run_finished", duration_s=1.5),
        ]
        return stream

    def test_report_sections(self):
        text = progress.render_run_report(self._manifest(), self._events())
        assert "run: evaluate policy=shortest-path n=8 seed=0" in text
        assert "engine: start_method=fork path_engine=kernel workers=2" in text
        assert "duration: 1.500s" in text
        assert "delivered 8/8" in text
        assert "route_pairs_parallel" in text
        assert "x2" in text  # aggregated span count
        assert "STRAGGLER" in text
        assert "stragglers: 1/2 shard(s) over 4.0x median" in text
        assert "fallback: unpicklable" in text
        assert "evaluate.pairs" in text
        assert "shard_heartbeat x3" in text

    def test_heartbeat_counts_per_shard(self):
        text = progress.render_run_report(self._manifest(), self._events())
        shard_lines = [line for line in text.splitlines()
                       if line.strip().startswith(("0 ", "1 "))]
        assert len(shard_lines) == 2
        # shard 0 saw two heartbeats, shard 1 one.
        assert shard_lines[0].split()[4] == "2"
        assert shard_lines[1].split()[4] == "1"

    def test_manifest_alone_renders(self):
        text = progress.render_run_report(self._manifest(), [])
        assert "run: evaluate" in text
        assert "shards:" in text
        assert "events:" not in text

    def test_serial_manifest_renders_no_shards_row(self):
        # A recorded serial run (or a serial fallback) produces a
        # manifest with an empty shard table; the report must render a
        # placeholder row, not crash or silently omit the section.
        manifest = events.build_manifest(
            command="evaluate",
            config={"policy": "shortest-path", "n": 8, "seed": 0},
            engine={"path_engine": "python", "workers": 1},
            started_at=100.0, finished_at=100.5,
            shards=[],
        )
        text = progress.render_run_report(manifest, [])
        assert "shards:" in text
        assert "none (serial run)" in text

    def test_all_null_shard_timings_render(self):
        manifest = self._manifest()
        for info in manifest["shards"]:
            info["started_at"] = None
            info["duration_s"] = None
        text = progress.render_run_report(manifest, [])
        assert "shards:" in text

    def test_retry_column_and_recovery_line(self):
        manifest = self._manifest()
        manifest["shards"][1]["retries"] = 1
        manifest["recovery"] = {"shards_lost": 1, "shards_retried": 1,
                                "shards_displaced": 0, "pool_rebuilds": 1,
                                "recovered": True}
        text = progress.render_run_report(manifest, [])
        shard_lines = [line for line in text.splitlines()
                       if line.strip().startswith(("0 ", "1 "))]
        # Column order: id pid pairs srcs hb rt start dur.
        assert shard_lines[0].split()[5] == "0"
        assert shard_lines[1].split()[5] == "1"
        assert "recovery: recovered — lost 1, retried 1, displaced 0, " \
               "pool rebuilds 1" in text

    def test_renderer_rolls_back_lost_shard(self):
        renderer = progress.ProgressRenderer(io.StringIO(), total_pairs=8)
        renderer.handle(_event("shard_dispatched", shard=0, pairs=4))
        renderer.handle(_event("shard_heartbeat", shard=0, pid=50,
                               pairs_done=3, pairs_total=4))
        assert "pairs 3/8" in renderer._status_line()
        assert "active 1/1" in renderer._status_line()
        renderer.handle(_event("shard_lost", shard=0, pid=50, attempt=0))
        assert "pairs 0/8" in renderer._status_line()
        assert "active 0/1" in renderer._status_line()

    def test_span_tree_orders_parents_first(self):
        lines = progress._format_span_tree([
            {"path": "a.b", "duration_s": 0.1},
            {"path": "a", "duration_s": 0.2},
        ])
        assert lines[0].strip().startswith("a ")
        assert lines[1].strip().startswith("b ")
