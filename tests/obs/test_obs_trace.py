"""Core telemetry layer: spans, counters, segments, schemas, rendering."""

import io
import json
import time

import pytest

from repro import obs
from repro.obs import (
    SCHEMA_SUMMARY,
    SCHEMA_TRACE,
    ProgressLine,
    Trace,
    attribution_fraction,
    build_summary,
    render_profile,
    validate_summary,
    validate_telemetry_file,
    write_summary,
)
from repro.obs.__main__ import main as obs_main


class TestTraceRecording:
    def test_span_nesting_records_parent_indices(self):
        trace = Trace("t")
        with trace.span("outer"):
            with trace.span("inner") as sp:
                sp.set("k", 1)
        outer, inner = trace.spans
        assert outer.parent is None
        assert inner.parent == 0
        assert inner.attrs == {"k": 1}
        assert outer.t1 >= inner.t1 >= inner.t0 >= outer.t0

    def test_span_records_error_attr_on_exception(self):
        trace = Trace("t")
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("x")
        assert trace.spans[0].attrs["error"] == "ValueError"

    def test_event_and_add_span(self):
        trace = Trace("t")
        trace.event("tick", index=3)
        trace.add_span("book", 10.0, 12.5, label="w")
        assert trace.spans[0].duration == 0.0
        assert trace.spans[1].duration == 2.5

    def test_counters_fire_observer_hook(self):
        trace = Trace("t")
        seen = []
        trace.on_counter = lambda name, value: seen.append((name, value))
        trace.incr("a")
        trace.incr("a", 2)
        assert trace.counters["a"] == 3
        assert seen == [("a", 1), ("a", 3)]

    def test_timestamps_monotonic_within_process(self):
        trace = Trace("t")
        stamps = [trace.now() for _ in range(100)]
        assert stamps == sorted(stamps)


class TestModuleAPI:
    def test_disabled_helpers_are_noops(self):
        assert not obs.enabled()
        assert obs.current_trace() is None
        with obs.span("x") as sp:
            sp.set("k", 1)  # must not raise
        obs.incr("c")
        obs.gauge("g", 1.0)
        obs.event("e")

    def test_tracing_installs_and_removes(self):
        with obs.tracing("t") as trace:
            assert obs.enabled()
            assert obs.current_trace() is trace
            with obs.span("x"):
                obs.incr("c")
        assert not obs.enabled()
        assert [sp.name for sp in trace.spans] == ["x"]
        assert trace.counters == {"c": 1}

    def test_disabled_span_is_shared_noop(self):
        # the fast path must not allocate per call
        assert obs.span("a") is obs.span("b")

    def test_disabled_mode_overhead_bound(self):
        # one contextvar read per call; generous CI bound (actual ~0.2us)
        n = 100_000
        t0 = time.perf_counter()
        for _ in range(n):
            with obs.span("x"):
                pass
            obs.incr("c")
        per_call = (time.perf_counter() - t0) / (2 * n)
        assert per_call < 5e-6


class TestSegments:
    def test_slice_spans_rebases_parents(self):
        trace = Trace("t")
        with trace.span("early"):
            pass
        mark = trace.mark()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        sliced = trace.slice_spans(mark)
        assert [d["name"] for d in sliced] == ["outer", "inner"]
        assert sliced[0]["parent"] is None  # parent outside slice dropped
        assert sliced[1]["parent"] == 0  # rebased onto the slice

    def test_drain_counters_ships_each_increment_once(self):
        trace = Trace("t")
        trace.incr("a", 2)
        assert trace.drain_counters() == {"a": 2}
        assert trace.drain_counters() == {}
        trace.incr("a")
        trace.incr("b")
        assert trace.drain_counters() == {"a": 1, "b": 1}

    def test_merge_segment_round_trip(self):
        worker = Trace("w", worker="w1")
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        worker.incr("c", 3)
        parent = Trace("p")
        with parent.span("root"):
            pass
        parent.merge_segment(
            spans=worker.slice_spans(0),
            counters=worker.drain_counters(),
            gauges={"g": 7.0},
        )
        assert [sp.name for sp in parent.spans] == ["root", "outer", "inner"]
        assert parent.spans[2].parent == 1  # offset by the existing span
        assert parent.spans[1].worker == "w1"
        assert parent.counters == {"c": 3}
        assert parent.gauges == {"g": 7.0}


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        trace = Trace("run", worker="w0")
        with trace.span("outer", n=3):
            with trace.span("inner"):
                pass
        trace.incr("c", 2)
        trace.gauge("g", 1.5)
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(str(path))
        back = Trace.read_jsonl(str(path))
        assert back.name == "run"
        assert back.worker == "w0"
        assert [sp.name for sp in back.spans] == ["outer", "inner"]
        assert back.spans[1].parent == 0
        assert back.spans[0].attrs == {"n": 3}
        assert back.counters == {"c": 2}
        assert back.gauges == {"g": 1.5}
        assert back.spans[0].t0 == pytest.approx(trace.spans[0].t0)

    def test_jsonl_schema_tag_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"type": "meta", "schema": "nope/9"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            Trace.read_jsonl(str(path))

    def test_non_json_safe_attrs_coerced(self, tmp_path):
        trace = Trace("t")
        trace.event("e", obj=object(), seq=(1, 2))
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(str(path))
        back = Trace.read_jsonl(str(path))
        assert isinstance(back.spans[0].attrs["obj"], str)
        assert back.spans[0].attrs["seq"] == [1, 2]


class TestSummary:
    def _trace(self) -> Trace:
        trace = Trace("t")
        with trace.span("a"):
            with trace.span("b"):
                pass
        trace.incr("c")
        trace.gauge("g", 2.0)
        return trace

    def test_build_summary_shape(self):
        summary = build_summary(self._trace())
        assert summary["schema"] == SCHEMA_SUMMARY
        assert summary["spans"] == 2
        assert set(summary["phases"]) == {"a", "b"}
        for ph in summary["phases"].values():
            assert set(ph) == {"count", "total_s", "self_s", "max_s"}
        assert validate_summary(summary) == []

    def test_validate_summary_reports_problems(self):
        assert validate_summary([]) == ["summary is not a JSON object"]
        problems = validate_summary({"schema": "x", "phases": {"p": {"count": -1}}})
        assert any("schema" in p for p in problems)
        assert any("count" in p for p in problems)

    def test_validate_telemetry_file_both_formats(self, tmp_path):
        trace = self._trace()
        jsonl = tmp_path / "t.jsonl"
        trace.write_jsonl(str(jsonl))
        assert validate_telemetry_file(str(jsonl)) == []
        summary = tmp_path / "s.json"
        write_summary(trace, str(summary))
        assert validate_telemetry_file(str(summary)) == []
        bad = tmp_path / "bad.json"
        bad.write_text("{}\n")
        assert validate_telemetry_file(str(bad)) != []

    def test_module_validator_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "ok.json"
        write_summary(self._trace(), str(good))
        assert obs_main([str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text("{}\n")
        assert obs_main([str(bad)]) == 2

    def test_schema_tags_are_versioned(self):
        assert SCHEMA_TRACE.endswith("/1")
        assert SCHEMA_SUMMARY.endswith("/1")


class TestProfile:
    def test_render_profile_lists_phases_and_counters(self):
        trace = Trace("t")
        with trace.span("root"):
            with trace.span("work"):
                pass
        trace.incr("solver.gmres.iterations", 42)
        text = render_profile(trace, title="demo")
        assert "demo" in text
        assert "work" in text
        assert "solver.gmres.iterations = 42" in text
        assert "attributed to named phases" in text

    def test_attribution_full_coverage(self):
        trace = Trace("t")
        with trace.span("root"):
            with trace.span("all-of-it"):
                time.sleep(0.01)
        assert attribution_fraction(trace) > 0.9

    def test_attribution_empty_trace(self):
        assert attribution_fraction(Trace("t")) == 1.0

    def test_attribution_counts_time_no_root_covers(self):
        """Two fully covered 0.1 s roots, 0.8 s apart: only 0.2 s of the
        1.0 s wall is inside any span."""
        from repro.obs.trace import Span

        trace = Trace("t")
        for t0 in (0.0, 0.9):
            root = len(trace.spans)
            trace.spans.append(Span("root", t0, t0 + 0.1))
            trace.spans.append(Span("work", t0, t0 + 0.1, parent=root))
        assert attribution_fraction(trace) == pytest.approx(0.2)


class TestProgressLine:
    def test_renders_progress_and_rate(self):
        buf = io.StringIO()
        p = ProgressLine(total=10, stream=buf, enabled=True, min_interval=0.0)
        p.on_counter("sweep.rows.completed", 3)
        out = buf.getvalue()
        assert "[3/10]" in out
        assert "pts/s" in out
        p.finish()
        assert buf.getvalue().endswith("\r" + " " * (len(out) - 1) + "\r")

    def test_ignores_other_counters(self):
        buf = io.StringIO()
        p = ProgressLine(total=10, stream=buf, enabled=True, min_interval=0.0)
        p.on_counter("solver.gmres.solves", 5)
        assert buf.getvalue() == ""

    def test_disabled_on_non_tty(self):
        buf = io.StringIO()  # StringIO has no tty
        p = ProgressLine(total=10, stream=buf)
        assert p.enabled is False
        p.update(5)
        assert buf.getvalue() == ""

    def test_rate_limit_skips_intermediate_draws(self):
        buf = io.StringIO()
        p = ProgressLine(total=100, stream=buf, enabled=True, min_interval=3600)
        p.update(1)  # first draw goes through (last_draw starts at 0)
        first = buf.getvalue()
        p.update(2)
        p.update(3)
        assert buf.getvalue() == first  # throttled
        p.update(100)  # completion always draws
        assert "[100/100]" in buf.getvalue()
