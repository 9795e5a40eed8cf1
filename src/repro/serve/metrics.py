"""Server-level counters, gauges, and latency histograms.

Declared as :class:`MetricSpec`\\ s in a :class:`MetricsRegistry` —
the same schema-first layer the sampler uses — so every ``/metrics``
scrape validates against the declarations before rendering, and the
``satr serve`` exposition inherits HELP/TYPE coverage and label
escaping from :func:`repro.metrics.render_exposition`.

The per-target run-latency histogram uses the labelled-histogram
extension: one cumulative bucket set per served target, exposed as
``satr_serve_run_seconds_bucket{target="fork",le="..."}`` series.
"""

import threading
from typing import Callable, Dict, Optional

from repro.metrics import (
    Histogram,
    MetricSpec,
    MetricsRegistry,
    render_exposition,
)

#: Run wall-time bucket bounds (seconds): sub-100ms cache hits through
#: multi-minute paper-scale computes.
RUN_SECONDS_BOUNDS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                      10.0, 30.0, 60.0, 120.0, 300.0)

SERVE_METRIC_SPECS = [
    MetricSpec("satr_serve_requests_total", "counter",
               "HTTP requests received, by endpoint.", label="endpoint"),
    MetricSpec("satr_serve_responses_total", "counter",
               "HTTP responses sent, by status code.", label="status"),
    MetricSpec("satr_serve_runs_total", "counter",
               "Finished scenario runs, by final state.", label="state"),
    MetricSpec("satr_serve_cache_hits_total", "counter",
               "Orchestrator cells replayed from the shared result "
               "cache, summed over all runs."),
    MetricSpec("satr_serve_cache_misses_total", "counter",
               "Orchestrator cells computed fresh, summed over all "
               "runs."),
    MetricSpec("satr_serve_coalesced_requests_total", "counter",
               "Requests that joined an identical in-flight run "
               "instead of executing."),
    MetricSpec("satr_executor_fallbacks_total", "counter",
               "Announced executor fallbacks: times a warm-worker "
               "executor degraded to running cells in-process."),
    MetricSpec("satr_serve_queue_depth", "gauge",
               "Runs queued and waiting for a worker."),
    MetricSpec("satr_serve_inflight_runs", "gauge",
               "Runs currently executing on a worker."),
    MetricSpec("satr_serve_draining", "gauge",
               "1 while the server is draining (refusing new work)."),
    MetricSpec("satr_serve_run_seconds", "histogram",
               "Run wall time (submit to finish), by target.",
               label="target"),
]


class ServerMetrics:
    """Thread-safe collection behind ``GET /metrics``.

    Counters and histograms accumulate under a lock; gauges are read
    live from registered provider callables at snapshot time, so the
    exposition always reflects the queue/in-flight state of *now*.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry(SERVE_METRIC_SPECS)
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._responses: Dict[str, int] = {}
        self._runs: Dict[str, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._coalesced = 0
        self._executor_fallbacks = 0
        self._run_seconds: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}

    # -- recording ------------------------------------------------------

    def register_gauge(self, name: str,
                       provider: Callable[[], float]) -> None:
        """Bind a declared gauge to a live reader."""
        spec = self.registry.spec(name)
        if spec.kind != "gauge":
            raise ValueError(f"{name} is a {spec.kind}, not a gauge")
        self._gauges[name] = provider

    def request(self, endpoint: str) -> None:
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def response(self, status: int) -> None:
        key = str(status)
        with self._lock:
            self._responses[key] = self._responses.get(key, 0) + 1

    def coalesced(self) -> None:
        with self._lock:
            self._coalesced += 1

    def executor_fallbacks(self, count: int = 1) -> None:
        with self._lock:
            self._executor_fallbacks += count

    def run_finished(self, target: str, state: str,
                     seconds: Optional[float],
                     hits: int = 0, misses: int = 0) -> None:
        with self._lock:
            self._runs[state] = self._runs.get(state, 0) + 1
            self._cache_hits += hits
            self._cache_misses += misses
            if seconds is not None:
                histogram = self._run_seconds.get(target)
                if histogram is None:
                    histogram = Histogram(list(RUN_SECONDS_BOUNDS))
                    self._run_seconds[target] = histogram
                histogram.observe(seconds)

    # -- exposition -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One validated values dict covering every declared metric."""
        with self._lock:
            values: Dict[str, object] = {
                "satr_serve_requests_total": dict(self._requests),
                "satr_serve_responses_total": dict(self._responses),
                "satr_serve_runs_total": dict(self._runs),
                "satr_serve_cache_hits_total": self._cache_hits,
                "satr_serve_cache_misses_total": self._cache_misses,
                "satr_serve_coalesced_requests_total": self._coalesced,
                "satr_executor_fallbacks_total": self._executor_fallbacks,
                "satr_serve_run_seconds": {
                    target: histogram.to_value()
                    for target, histogram in self._run_seconds.items()
                },
            }
        for spec in self.registry.specs():
            if spec.kind == "gauge":
                provider = self._gauges.get(spec.name)
                values[spec.name] = float(provider()) if provider else 0.0
        self.registry.validate(values)
        return values

    def exposition(self) -> str:
        """The Prometheus text body of ``GET /metrics``."""
        return render_exposition(self.registry, self.snapshot())
