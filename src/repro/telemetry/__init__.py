"""Unified telemetry subsystem: registry, sampler, events, exporters.

See ``docs/telemetry.md`` for the metric catalogue, the attribution
profiler and the report/diff formats.
"""

from .attribution import (
    MISS_CLASSES,
    AttributionProfiler,
    RegionResolver,
    ShadowTagStore,
)
from .diff import (
    DIFF_FORMAT,
    diff_payloads,
    diff_table_rows,
    load_profile,
    phase_segments,
    phase_table_rows,
    validate_diff_payload,
    write_diff_html,
    write_diff_json,
)
from .events import EVENT_KINDS, EventTrace, TraceEvent
from .export import (
    TELEMETRY_FORMAT,
    derive_rates,
    dropped_events_note,
    html_page,
    parse_prom_text,
    render_prom,
    telemetry_dict,
    telemetry_prom_samples,
    validate_telemetry_payload,
    write_csv,
    write_html,
    write_json,
    write_profile,
    write_prom,
)
from .registry import Counter, Gauge, Histogram, MetricRegistry
from .sampler import IntervalSampler, Sample, Timeline
from .session import Telemetry
from .spans import (
    SpanRecorder,
    chrome_path,
    read_sidecar,
    sidecar_generations,
    sidecar_path,
    spans_created,
    write_chrome_trace,
)
from .tail import JsonlTailer
from .trend import (
    flag_regressions,
    scan_store,
    trend_report,
    trend_series,
    trend_table_rows,
)

__all__ = [
    "EVENT_KINDS",
    "EventTrace",
    "TraceEvent",
    "TELEMETRY_FORMAT",
    "DIFF_FORMAT",
    "MISS_CLASSES",
    "AttributionProfiler",
    "RegionResolver",
    "ShadowTagStore",
    "derive_rates",
    "telemetry_dict",
    "validate_telemetry_payload",
    "diff_payloads",
    "diff_table_rows",
    "load_profile",
    "phase_segments",
    "phase_table_rows",
    "validate_diff_payload",
    "html_page",
    "write_csv",
    "write_html",
    "write_json",
    "write_profile",
    "render_prom",
    "write_prom",
    "parse_prom_text",
    "telemetry_prom_samples",
    "write_diff_html",
    "write_diff_json",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "IntervalSampler",
    "Sample",
    "Timeline",
    "Telemetry",
    "dropped_events_note",
    "SpanRecorder",
    "spans_created",
    "sidecar_path",
    "chrome_path",
    "read_sidecar",
    "sidecar_generations",
    "write_chrome_trace",
    "JsonlTailer",
    "scan_store",
    "trend_series",
    "trend_report",
    "trend_table_rows",
    "flag_regressions",
]
