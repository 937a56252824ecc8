"""The Prometheus text-format renderer: shape, escaping, exemplars.

Includes a small stdlib-only parser for the exposition format (also
exercised by the live scrape test in
``tests/service/test_trace_propagation.py``): if our own parser can
round-trip the renderer's output, a real scraper can too.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus

_SERIES_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ #]+)"
    r"(?P<exemplar> # \{[^}]*\} .+)?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> dict:
    """Parse Prometheus text format into ``{series: value}`` plus types.

    Stdlib-only, strict: every non-comment line must match the series
    grammar, every ``# TYPE`` must precede its family's samples.
    """
    types: dict[str, str] = {}
    series: dict[tuple[str, tuple], float] = {}
    exemplars: dict[tuple[str, tuple], dict] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.split(" ")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SERIES_RE.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        labels = tuple(sorted(_LABEL_RE.findall(match.group("labels") or "")))
        value = float(match.group("value"))
        key = (match.group("name"), labels)
        assert key not in series, f"duplicate series {key}"
        series[key] = value
        if match.group("exemplar"):
            ex_labels, _, ex_value = match.group("exemplar")[3:].partition("} ")
            exemplars[key] = {
                "labels": dict(_LABEL_RE.findall(ex_labels)),
                "value": float(ex_value),
            }
        # The family of a histogram sample is its base name.
        family = re.sub(r"_(bucket|sum|count|total)$", "", match.group("name"))
        assert family in types or match.group("name") in types, (
            f"sample {match.group('name')} has no TYPE line"
        )
    return {"types": types, "series": series, "exemplars": exemplars}


class TestRenderer:
    def test_counter_gets_total_suffix_and_type(self):
        registry = MetricsRegistry()
        registry.counter("service.requests", op="decrypt", outcome="ok").inc(3)
        parsed = parse_exposition(render_prometheus(registry))
        assert parsed["types"]["service_requests_total"] == "counter"
        key = ("service_requests_total", (("op", "decrypt"), ("outcome", "ok")))
        assert parsed["series"][key] == 3

    def test_gauge_renders_plain(self):
        registry = MetricsRegistry()
        registry.gauge("service.busy_workers").set(2)
        parsed = parse_exposition(render_prometheus(registry))
        assert parsed["types"]["service_busy_workers"] == "gauge"
        assert parsed["series"][("service_busy_workers", ())] == 2

    def test_histogram_cumulative_buckets_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0), op="x")
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        parsed = parse_exposition(render_prometheus(registry))
        assert parsed["types"]["lat"] == "histogram"
        series = parsed["series"]
        assert series[("lat_bucket", (("le", "0.1"), ("op", "x")))] == 1
        assert series[("lat_bucket", (("le", "1.0"), ("op", "x")))] == 3
        assert series[("lat_bucket", (("le", "+Inf"), ("op", "x")))] == 4
        assert series[("lat_count", (("op", "x"),))] == 4
        assert series[("lat_sum", (("op", "x"),))] == pytest.approx(6.05)

    def test_bucket_exemplar_renders_openmetrics_style(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.5, exemplar={"trace_id": "abcd1234", "span": "server:7"})
        parsed = parse_exposition(render_prometheus(registry))
        key = ("lat_bucket", (("le", "1.0"),))
        assert parsed["exemplars"][key]["labels"]["trace_id"] == "abcd1234"
        assert parsed["exemplars"][key]["value"] == pytest.approx(0.5)

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", why='quote " backslash \\ newline \n end').inc()
        text = render_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parsed = parse_exposition(text)
        assert parsed["series"][
            ("c_total", (("why", 'quote \\" backslash \\\\ newline \\n end'),))
        ] == 1

    def test_output_is_deterministic_and_newline_terminated(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b", z="1").inc()
            registry.counter("a").inc(2)
            registry.gauge("g").set(5)
            registry.histogram("h", buckets=(1.0,)).observe(0.5)
            return render_prometheus(registry)

        first, second = build(), build()
        assert first == second
        assert first.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_content_type_names_text_format(self):
        assert "text/plain" in PROMETHEUS_CONTENT_TYPE
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE

    def test_non_finite_values(self):
        registry = MetricsRegistry()
        registry.gauge("weird").set(float("inf"))
        parsed = parse_exposition(render_prometheus(registry))
        assert math.isinf(parsed["series"][("weird", ())])
