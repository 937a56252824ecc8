"""Unit tests for the span tracer: nesting, determinism, JSONL schema,
the no-op fast path, and the ``@traced`` method decorator."""

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.tracer import (
    MAX_TRACE_FIELD_LENGTH,
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    SpanContext,
    Tracer,
    active_tracer,
    install_tracer,
    merge_trace_files,
    merge_traces,
    new_trace_id,
    traced,
    tracing,
    uninstall_tracer,
    validate_trace,
    validate_trace_file,
)


class TestSpans:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_ids_are_sequential_and_deterministic(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.span_id for s in tracer.finished] == [1, 0, 2]  # finish order
        assert sorted(s.span_id for s in tracer.finished) == [0, 1, 2]

    def test_finish_order_children_before_parents(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        assert [s.name for s in tracer.finished] == ["child", "parent"]

    def test_annotate_merges_attrs(self):
        tracer = Tracer()
        with tracer.span("s", fixed=1) as span:
            span.annotate(extra="x")
        assert span.attrs == {"fixed": 1, "extra": "x"}

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.finished
        assert span.attrs["error"] == "ValueError"

    def test_monotonic_interval(self):
        tracer = Tracer()
        with tracer.span("timed"):
            pass
        (span,) = tracer.finished
        assert span.end >= span.start
        assert span.duration == span.end - span.start

    def test_record_synthesizes_interval(self):
        tracer = Tracer()
        span = tracer.record("measured", 0.25, bits=8)
        assert span.duration == pytest.approx(0.25)
        assert span.attrs == {"bits": 8}
        assert tracer.finished == [span]

    def test_explicit_parent_crosses_threads(self):
        """The thread-local stack does not leak across threads, but an
        explicit parent= attaches a worker's span to the driver's."""
        tracer = Tracer()
        seen = {}

        with tracer.span("driver") as driver:

            def worker():
                seen["implicit"] = tracer.current()
                with tracer.span("step", parent=driver):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()

        assert seen["implicit"] is None  # no cross-thread implicit nesting
        (step,) = tracer.spans_named("step")
        assert step.parent_id == driver.span_id
        assert tracer.children_of(driver) == [step]

    def test_attached_counter_records_ops_delta(self, small_group, rng):
        tracer = Tracer()
        tracer.attach_counter(small_group.counter)
        u = small_group.random_g(rng)
        with tracer.span("exp"):
            _ = u ** 7
        (span,) = tracer.finished
        assert span.attrs["ops"]["g_exp"] >= 1


class TestExportAndSchema:
    def test_jsonl_roundtrip_validates(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner", bits=3):
                pass
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        spans = validate_trace_file(path)
        assert [s["name"] for s in spans] == ["inner", "outer"]
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {
            "record": "trace-header",
            "version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
        }

    def test_missing_header_rejected(self):
        line = json.dumps(
            {"record": "span", "id": 0, "parent": None, "name": "x",
             "start": 0.0, "end": 1.0, "attrs": {}}
        )
        with pytest.raises(ValueError, match="trace-header"):
            validate_trace([line])

    def test_wrong_version_rejected(self):
        header = json.dumps({"record": "trace-header", "version": 999, "clock": "perf_counter"})
        with pytest.raises(ValueError, match="version"):
            validate_trace([header])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_trace([])

    def _header(self):
        return json.dumps(
            {"record": "trace-header", "version": TRACE_SCHEMA_VERSION, "clock": "perf_counter"}
        )

    def _span(self, **overrides):
        record = {"record": "span", "id": 0, "parent": None, "name": "x",
                  "start": 0.0, "end": 1.0, "attrs": {}}
        record.update(overrides)
        return json.dumps(record)

    def test_missing_key_rejected(self):
        broken = {"record": "span", "id": 0, "parent": None, "name": "x",
                  "start": 0.0, "attrs": {}}  # no "end"
        with pytest.raises(ValueError, match="missing 'end'"):
            validate_trace([self._header(), json.dumps(broken)])

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="ends before"):
            validate_trace([self._header(), self._span(start=2.0, end=1.0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_trace([self._header(), self._span(id=0), self._span(id=0)])

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="unknown parent"):
            validate_trace([self._header(), self._span(parent=42)])

    def test_parent_may_appear_later_in_file(self):
        """Finish-order export puts children first; integrity is checked
        over the whole file."""
        lines = [
            self._header(),
            self._span(id=1, parent=0, name="child"),
            self._span(id=0, parent=None, name="parent"),
        ]
        assert [s["id"] for s in validate_trace(lines)] == [1, 0]


class TestActiveTracer:
    def test_null_tracer_by_default(self):
        assert active_tracer() is NULL_TRACER
        assert not active_tracer().enabled

    def test_null_tracer_hands_out_the_shared_span(self):
        assert NULL_TRACER.span("anything") is NULL_SPAN
        assert NULL_TRACER.record("anything", 1.0) is NULL_SPAN
        with NULL_SPAN as span:
            assert span.annotate(x=1) is NULL_SPAN
        assert NULL_SPAN.duration == 0.0

    def test_tracing_scope_installs_and_restores(self):
        with tracing() as tracer:
            assert active_tracer() is tracer
            assert tracer.enabled
        assert active_tracer() is NULL_TRACER

    def test_install_returns_previous(self):
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            assert previous is NULL_TRACER
            assert active_tracer() is tracer
        finally:
            uninstall_tracer()
        assert active_tracer() is NULL_TRACER


class _Operand:
    span_kind = "toy"

    @traced("op")
    def op(self, x):
        return x + 1

    def plain(self, x):
        return x + 1


class TestTracedDecorator:
    def test_span_named_by_kind_and_operation(self):
        with tracing() as tracer:
            assert _Operand().op(1) == 2
        (span,) = tracer.finished
        assert span.name == "toy.op"

    def test_no_span_without_tracer(self):
        instance = _Operand()
        assert instance.op(1) == 2  # NULL_TRACER installed: no spans exist

    def test_disabled_overhead_is_bounded(self):
        """The bench guard for "off-by-default-cheap": with the no-op
        tracer installed, a traced method costs at most a few times a
        plain call (one global read + one attribute check), never a
        span allocation.  The bound is deliberately loose -- it catches
        accidental span construction on the disabled path (an order of
        magnitude), not micro-regressions.  The two loops alternate, so
        a spell of host load lands on both minima, not on one."""
        instance = _Operand()
        rounds = 20_000

        def time_calls(fn):
            start = time.perf_counter()
            for i in range(rounds):
                fn(i)
            return time.perf_counter() - start

        plain = traced_off = float("inf")
        for _ in range(5):
            plain = min(plain, time_calls(instance.plain))
            traced_off = min(traced_off, time_calls(instance.op))
        assert traced_off < plain * 10


#: JSON values of every type, with strings and ints on both sides of
#: the trace-field length bound, nested up to a few levels.
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10 ** (MAX_TRACE_FIELD_LENGTH - 1), max_value=10**200)
    | st.floats()
    | st.text(max_size=8)
    | st.text(min_size=MAX_TRACE_FIELD_LENGTH - 2, max_size=MAX_TRACE_FIELD_LENGTH + 2)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_headers = st.fixed_dictionaries(
    {},
    optional={
        "parent_span": _json_leaves | _json_values,
        "trace_id": _json_leaves | _json_values,
        "op": _json_values,
    },
)


class TestSpanContext:
    def test_header_roundtrip(self):
        tracer = Tracer(actor="client")
        with tracer.span("call") as span:
            context = span.context()
        fields = context.header_fields()
        assert fields["parent_span"] == span.ref
        assert fields["trace_id"] == tracer.trace_id
        recovered = SpanContext.from_header(fields)
        assert recovered == context

    def test_anonymous_tracer_refs_are_ints(self):
        tracer = Tracer()
        with tracer.span("call") as span:
            context = span.context()
        assert isinstance(context.span_ref, int)
        # The trace id is still minted lazily so the wire context always
        # identifies a trace.
        assert context.trace_id == tracer.trace_id is not None

    def test_absent_fields_mean_no_context(self):
        assert SpanContext.from_header({}) is None
        assert SpanContext.from_header({"op": "decrypt"}) is None

    @pytest.mark.parametrize(
        "ref",
        [None, True, False, 1.5, "", [], {}, "x" * (MAX_TRACE_FIELD_LENGTH + 1)],
    )
    def test_malformed_parent_degrades_to_none(self, ref):
        assert SpanContext.from_header({"parent_span": ref}) is None

    @given(header=_headers)
    @settings(max_examples=300, deadline=None)
    def test_from_header_fuzz_returns_a_bounded_context_or_none(self, header):
        """Any JSON-shaped header decodes to a context or ``None``:
        never an exception, never a field over the length bound."""
        context = SpanContext.from_header(header)
        if context is None:
            return
        assert isinstance(context, SpanContext)
        ref = context.span_ref
        assert isinstance(ref, (int, str)) and not isinstance(ref, bool)
        assert 0 < len(str(ref)) <= MAX_TRACE_FIELD_LENGTH
        assert ref == header["parent_span"]
        trace_id = context.trace_id
        assert trace_id is None or (
            isinstance(trace_id, str) and 0 < len(trace_id) <= MAX_TRACE_FIELD_LENGTH
        )
        assert SpanContext.from_header(context.header_fields()) == context

    def test_malformed_trace_id_kept_as_anonymous_context(self):
        # A bad trace id must not poison the parent ref: tracing context
        # is advisory, so the usable half survives.
        context = SpanContext.from_header({"parent_span": 7, "trace_id": 9})
        assert context is not None
        assert context.span_ref == 7
        assert context.trace_id is None

    def test_remote_parent_span_records_flag_and_inherits_trace(self):
        remote = SpanContext(trace_id="feedbeefcafe0001", span_ref="client:3")
        tracer = Tracer(actor="server")
        with tracer.span("service.request", parent=remote) as span:
            pass
        record = span.to_record()
        assert record["parent"] == "client:3"
        assert record["remote_parent"] is True
        assert record["trace"] == "feedbeefcafe0001"
        assert str(record["id"]).startswith("server:")

    def test_remote_parent_exempt_from_validation(self):
        remote = SpanContext(trace_id=None, span_ref="client:3")
        tracer = Tracer(actor="server")
        with tracer.span("service.request", parent=remote):
            pass
        # The remote parent is not in this file, yet the trace is valid.
        spans = validate_trace(tracer.to_jsonl().splitlines())
        assert len(spans) == 1

    def test_local_unknown_parent_still_rejected(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        lines = [json.dumps(tracer.header())]
        record = tracer.finished[0].to_record()
        record["parent"] = 999  # forged, and not flagged remote
        lines.append(json.dumps(record))
        with pytest.raises(ValueError, match="unknown parent"):
            validate_trace(lines)


class TestActorAndTraceIds:
    def test_actor_qualifies_exported_ids(self):
        tracer = Tracer(actor="server")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        records = [s.to_record() for s in tracer.finished]
        assert all(str(r["id"]).startswith("server:") for r in records)
        inner = next(r for r in records if r["name"] == "inner")
        outer = next(r for r in records if r["name"] == "outer")
        assert inner["parent"] == outer["id"]

    def test_children_inherit_trace_id(self):
        tracer = Tracer(trace_id="aa" * 8)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert all(s.trace_id == "aa" * 8 for s in tracer.finished)
        assert all(s.to_record()["trace"] == "aa" * 8 for s in tracer.finished)

    def test_untraced_header_shape_is_classic(self):
        # No actor, no trace id: the header has exactly the v1 keys plus
        # the bumped version, so old tooling sees nothing unfamiliar.
        tracer = Tracer()
        assert tracer.header() == {
            "record": "trace-header",
            "version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
        }

    def test_new_trace_id_deterministic_under_rng(self):
        import random

        first = new_trace_id(random.Random(7))
        second = new_trace_id(random.Random(7))
        assert first == second
        assert len(first) == 16
        int(first, 16)  # hex

    def test_ensure_trace_id_mints_once(self):
        tracer = Tracer()
        assert tracer.trace_id is None
        minted = tracer.ensure_trace_id()
        assert tracer.ensure_trace_id() == minted == tracer.trace_id


class TestMergeTraces:
    def _pair(self):
        client = Tracer(actor="client", trace_id="cc" * 8)
        with client.span("service.call") as call:
            context = call.context()
        server = Tracer(actor="server")
        with server.span("service.request", parent=context):
            pass
        return client, server

    def test_merge_resolves_remote_parent(self, tmp_path):
        client, server = self._pair()
        merged = merge_traces([client.to_records(), server.to_records()])
        spans = validate_trace(json.dumps(r) for r in merged)
        request = next(s for s in spans if s["name"] == "service.request")
        call = next(s for s in spans if s["name"] == "service.call")
        assert request["parent"] == call["id"]
        assert "remote_parent" not in request  # resolved: exemption dropped
        assert request["trace"] == call["trace"] == "cc" * 8

    def test_merge_files_writes_valid_jsonl(self, tmp_path):
        client, server = self._pair()
        client_path, server_path = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
        client.export_jsonl(client_path)
        server.export_jsonl(server_path)
        merged_path = tmp_path / "m.jsonl"
        spans = merge_trace_files([client_path, server_path], output=merged_path)
        assert {s["name"] for s in spans} == {"service.call", "service.request"}
        assert validate_trace_file(merged_path) == spans

    def test_merge_rejects_colliding_ids(self):
        first, second = Tracer(), Tracer()  # both anonymous: ids collide
        with first.span("a"):
            pass
        with second.span("b"):
            pass
        with pytest.raises(ValueError, match="colliding"):
            merge_traces([first.to_records(), second.to_records()])

    def test_unresolved_remote_parent_keeps_exemption(self):
        _, server = self._pair()
        merged = merge_traces([server.to_records()])  # client side absent
        request = next(r for r in merged if r.get("record") == "span")
        assert request["remote_parent"] is True
        validate_trace(json.dumps(r) for r in merged)
