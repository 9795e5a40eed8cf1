"""``repro.serve`` — the long-lived ``satr serve`` scenario daemon.

Turns the batch CLI into a traffic-serving system: a stdlib-only HTTP
daemon that accepts scenario requests (``POST /run`` with target,
scale, seed and execution overrides), executes them through
:mod:`repro.orchestrate` with the shared on-disk :class:`ResultCache`
as a cross-client memoization layer, streams per-cell progress as
newline-delimited JSON (``GET /runs/<id>/events``), and exposes
``GET /metrics`` (Prometheus text format), ``GET /healthz`` and
``GET /runs`` for introspection.  ``satr loadgen`` is the matching
latency/throughput load-generator client.

Correctness contract: a run's ``report`` — and the raw bytes of
``GET /runs/<id>/report`` — is byte-identical to the report the CLI
prints for the same target/scale/seed, whether the run was computed,
replayed from the cache, or coalesced onto an identical in-flight
request.
"""

from repro.serve.app import ServeApp, ServeServer, make_server
from repro.serve.loadgen import render_loadgen_report, run_loadgen
from repro.serve.metrics import SERVE_METRIC_SPECS, ServerMetrics
from repro.serve.model import (
    DEFAULT_SCALE,
    MAX_JOBS,
    SERVE_TARGETS,
    RequestError,
    RunRequest,
    parse_run_request,
    request_schema,
    validate_schema,
)
from repro.serve.registry import RUN_STATES, RunRecord, RunRegistry

__all__ = [
    "DEFAULT_SCALE",
    "MAX_JOBS",
    "RUN_STATES",
    "RequestError",
    "RunRecord",
    "RunRegistry",
    "RunRequest",
    "SERVE_METRIC_SPECS",
    "SERVE_TARGETS",
    "ServeApp",
    "ServeServer",
    "ServerMetrics",
    "make_server",
    "parse_run_request",
    "render_loadgen_report",
    "request_schema",
    "run_loadgen",
    "validate_schema",
]
