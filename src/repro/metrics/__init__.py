"""``repro.metrics`` — time-series sharing/TLB metrics for ``satr``.

The observability layer that complements :mod:`repro.trace` (events)
and :mod:`repro.check` (invariants): a schema-first
:class:`MetricsRegistry` of typed counters/gauges/histograms, a
:class:`Sampler` that snapshots the paper's sharing-effectiveness
gauges on an access-event interval and at every lifecycle boundary,
Prometheus/OpenMetrics and JSONL expositions, and the perf-baseline
harness behind ``satr bench``.

Wiring contract (shared with the checker): the sampler is a kernel
lifecycle observer, attached through ``Kernel(config, observers=...)``
/ ``build_runtime(observers=...)`` and never a ``KernelConfig`` field,
so orchestrator cache digests are unaffected.
"""

from repro.metrics.collect import (
    FAULT_KINDS,
    METRIC_SPECS,
    PAGETABLE_BYTES_BOUNDS,
    PGD_BYTES,
    collect,
    default_registry,
)
from repro.metrics.expose import (
    PROMETHEUS_CONTENT_TYPE,
    escape_label_value,
    jsonl_lines,
    parse_exposition,
    render_exposition,
    to_prometheus,
)
from repro.metrics.registry import (
    Histogram,
    MetricError,
    MetricSpec,
    MetricsRegistry,
    flatten_values,
    format_number,
)
from repro.metrics.sampler import (
    DEFAULT_SAMPLE_EVERY,
    Sampler,
)
from repro.metrics.summary import series_of, sparkline

__all__ = [
    "DEFAULT_SAMPLE_EVERY",
    "FAULT_KINDS",
    "Histogram",
    "METRIC_SPECS",
    "MetricError",
    "MetricSpec",
    "MetricsRegistry",
    "PAGETABLE_BYTES_BOUNDS",
    "PGD_BYTES",
    "PROMETHEUS_CONTENT_TYPE",
    "Sampler",
    "collect",
    "default_registry",
    "escape_label_value",
    "flatten_values",
    "format_number",
    "jsonl_lines",
    "parse_exposition",
    "render_exposition",
    "series_of",
    "sparkline",
    "to_prometheus",
]
