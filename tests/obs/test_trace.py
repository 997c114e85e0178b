"""Unit tests for the bounded span tracer."""

import json

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    Span,
    TraceRecorder,
    active_tracer,
)


class FakeClock:
    """Deterministic perf_counter stand-in (advances 1.0 per read)."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestSpanNesting:
    def test_depth_and_parent_follow_the_stack(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("fit"):
            with rec.span("iteration", iteration=0):
                with rec.span("gemm"):
                    pass
                with rec.span("update_feed"):
                    pass
        by_name = {s.name: s for s in rec.spans}
        assert by_name["fit"].depth == 0 and by_name["fit"].parent == ""
        assert by_name["iteration"].depth == 1
        assert by_name["iteration"].parent == "fit"
        assert by_name["gemm"].depth == 2
        assert by_name["gemm"].parent == "iteration"
        assert by_name["update_feed"].parent == "iteration"
        # completion order: innermost finish first
        assert [s.name for s in rec.spans] == [
            "gemm", "update_feed", "iteration", "fit"]

    def test_meta_and_wall(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("chunk", lo=0, hi=128):
            pass
        (span,) = rec.spans
        assert span.meta == {"lo": 0, "hi": 128}
        assert span.wall_s == pytest.approx(1.0)  # one clock tick inside

    def test_explicit_handle_enter_exit(self):
        """The coordinator uses explicit __enter__/__exit__ handles."""
        rec = TraceRecorder(clock=FakeClock())
        h = rec.span("fit")
        h.__enter__()
        with rec.span("round", iteration=1):
            pass
        h.__exit__(None, None, None)
        assert [s.name for s in rec.spans] == ["round", "fit"]
        assert rec.spans[0].parent == "fit"

    def test_out_of_order_finish_unwinds_robustly(self):
        """A worker thread finishing after its parent closed must not
        wedge the stack."""
        rec = TraceRecorder(clock=FakeClock())
        outer = rec.span("outer")
        outer.__enter__()
        inner = rec.span("inner")
        inner.__enter__()
        outer.__exit__(None, None, None)   # parent closes first
        inner.__exit__(None, None, None)   # child is already off-stack
        assert {s.name for s in rec.spans} == {"outer", "inner"}
        # the stack fully unwound: a new root span has depth 0 again
        with rec.span("next"):
            pass
        assert rec.spans[-1].depth == 0


class TestBoundsAndExport:
    def test_ring_is_bounded_and_counts_drops(self):
        rec = TraceRecorder(max_spans=4, clock=FakeClock())
        for i in range(7):
            with rec.span("s", i=i):
                pass
        assert len(rec) == 4
        assert rec.dropped == 3
        assert [s.meta["i"] for s in rec.spans] == [3, 4, 5, 6]

    def test_clear_resets_everything(self):
        rec = TraceRecorder(max_spans=2, clock=FakeClock())
        for _ in range(3):
            with rec.span("s"):
                pass
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0

    def test_instant_records_zero_duration_marker(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("fit"):
            rec.instant("restore", iteration=3)
        marker = rec.spans[0]
        assert marker.name == "restore"
        assert marker.wall_s == 0.0
        assert marker.parent == "fit"

    def test_stage_totals_aggregates_walls_and_counts(self):
        rec = TraceRecorder(clock=FakeClock())
        for _ in range(3):
            with rec.span("gemm"):
                pass
        totals = rec.stage_totals()
        assert totals["gemm"]["count"] == 3
        assert totals["gemm"]["wall_s"] == pytest.approx(3.0)

    def test_to_jsonl_round_trips(self):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("fit", m=10):
            pass
        lines = rec.to_jsonl().strip().split("\n")
        (doc,) = [json.loads(line) for line in lines]
        assert doc["name"] == "fit"
        assert doc["meta"] == {"m": 10}
        assert doc["wall_s"] == pytest.approx(1.0)

    def test_span_to_dict_omits_empty_meta(self):
        s = Span(name="x", t0=1.0, t1=2.0)
        assert "meta" not in s.to_dict()


class TestDisabledPath:
    def test_disabled_recorder_never_touches_clock_or_ring(self):
        calls = []

        def trapped_clock():
            calls.append(1)
            return 0.0

        rec = TraceRecorder(enabled=False, clock=trapped_clock)
        with rec.span("fit"):
            with rec.span("gemm"):
                pass
        rec.instant("marker")
        assert len(rec) == 0 and calls == []

    def test_disabled_recorder_returns_shared_handle(self):
        rec = TraceRecorder(enabled=False)
        assert rec.span("a") is rec.span("b")

    def test_active_tracer_gates(self):
        live = TraceRecorder()
        assert active_tracer(live) is live
        assert active_tracer(None) is NULL_TRACER
        assert active_tracer(TraceRecorder(enabled=False)) is NULL_TRACER

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x", a=1):
            pass
        assert NULL_TRACER.instant("y") is None
        assert NULL_TRACER.stage_totals() == {}
        assert NULL_TRACER.spans == ()


class TestStreamingSink:
    """The optional JSONL sink appends each span the moment it closes —
    a crash mid-fit loses nothing already streamed."""

    def test_spans_stream_as_they_close(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rec = TraceRecorder(clock=FakeClock(), sink=out)
        with rec.span("fit"):
            with rec.span("round", iteration=0):
                pass
            # the inner span is already on disk before the outer closes
            lines = out.read_text().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["name"] == "round"
        rec.instant("marker")
        rec.close_sink()
        docs = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert [d["name"] for d in docs] == ["round", "fit", "marker"]
        assert docs[0]["meta"] == {"iteration": 0}
        assert rec.sink_spans == 3

    def test_sink_accepts_file_object_and_does_not_close_it(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with open(out, "w", encoding="utf-8") as fh:
            rec = TraceRecorder(clock=FakeClock(), sink=fh)
            with rec.span("a"):
                pass
            rec.close_sink()
            assert not fh.closed       # caller-owned handle stays open
        assert json.loads(out.read_text())["name"] == "a"

    def test_streamed_lines_survive_ring_eviction(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rec = TraceRecorder(clock=FakeClock(), max_spans=2, sink=out)
        for i in range(5):
            with rec.span(f"s{i}"):
                pass
        rec.close_sink()
        assert len(rec.spans) == 2 and rec.dropped == 3
        assert len(out.read_text().splitlines()) == 5

    def test_no_sink_means_no_file(self, tmp_path):
        rec = TraceRecorder(clock=FakeClock())
        with rec.span("a"):
            pass
        rec.close_sink()               # no-op without a sink
        assert rec.sink_spans == 0

    def test_disabled_recorder_never_opens_the_sink(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rec = TraceRecorder(enabled=False, sink=out)
        with rec.span("a"):
            pass
        rec.instant("b")
        rec.close_sink()
        assert not out.exists()


class TestChromeTrace:
    def test_spans_export_as_complete_events(self):
        ticks = iter(range(100))
        tr = TraceRecorder(clock=lambda: next(ticks) * 1e-3)
        with tr.span("fit"):
            with tr.span("round", iteration=2):
                pass
        doc = json.loads(tr.to_chrome_trace())
        assert doc["displayTimeUnit"] == "ms"
        events = {e["name"]: e for e in doc["traceEvents"]}
        assert set(events) == {"fit", "round"}
        for e in doc["traceEvents"]:
            assert e["ph"] == "X"
            assert e["dur"] > 0
        assert events["round"]["args"] == {"iteration": 2}
        # timestamps are microseconds on the recorder clock
        assert events["round"]["ts"] == pytest.approx(1e3)

    def test_file_handle_mode(self, tmp_path):
        tr = TraceRecorder()
        with tr.span("fit"):
            pass
        out = tmp_path / "trace.json"
        with open(out, "w") as fh:
            assert tr.to_chrome_trace(fh) == ""
        assert json.loads(out.read_text())["traceEvents"]
