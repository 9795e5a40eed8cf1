"""The daemon: worker pool, HTTP endpoints, graceful drain.

Layering::

    ServeServer (HTTPServer)                 reused handler threads
      └─ _Handler                            routes + JSON/stream I/O
           └─ ServeApp                       the actual service
                ├─ RunRegistry               records + in-flight dedup
                ├─ worker pool (threads)     bounded, FIFO, drainable
                ├─ held plans                one plan per request key
                ├─ ResultCache (shared)      cross-client memoization
                └─ ServerMetrics             /metrics exposition

Endpoints::

    POST /run               execute (or join/replay) a scenario request
    GET  /runs              all runs, submission order
    GET  /runs/<id>         one run (report included once done)
    GET  /runs/<id>/report  the raw report bytes (CLI byte-identity)
    GET  /runs/<id>/events  newline-delimited JSON progress stream
    GET  /metrics           Prometheus text format
    GET  /healthz           liveness (503 while draining)

A warm request does only per-request work: planning is pure, so the
app keeps the plan of each ``(target, scale, seed, policy)`` it has
built (``PLANS_HELD``, oldest out), each planned cell hashes its digest
once, and the cache holds the records it has read.

Each accepted connection goes to an idle handler thread; a new one
starts only when none is idle.  So a closed-loop client reuses one
thread instead of starting one per connection, and concurrency stays
unbounded: a long event stream holds its thread, never ``/healthz``'s.

Graceful shutdown: ``begin_drain()`` flips the server to refuse new
``POST /run`` with 503 while queued and in-flight runs finish and flush
to the cache; ``drain()`` then joins the workers.  ``satr serve`` wires
SIGTERM/SIGINT to exactly that sequence.
"""

import json
import queue
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from repro import __version__
from repro.experiments.common import SCALES
from repro.metrics import PROMETHEUS_CONTENT_TYPE
from repro.orchestrate import (
    BoundedMemo,
    Orchestrator,
    ResultCache,
    Telemetry,
    open_executor,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.model import (
    SERVE_TARGETS,
    RequestError,
    RunRequest,
    parse_run_request,
)
from repro.serve.registry import RunRecord, RunRegistry

if TYPE_CHECKING:
    from repro.experiments.runner import TargetPlan

#: How long one events_since poll blocks before emitting a keepalive.
STREAM_POLL_SECONDS = 10.0

#: Plans held by ``(target, scale, seed, policy)``, 4 to 6 cells each:
#: every served target under every policy for four (scale, seed) pairs.
PLANS_HELD = 64


class ServiceUnavailable(RuntimeError):
    """The server cannot accept this run (draining or queue full)."""


def default_targets() -> Dict[str, Callable]:
    """The served subset of the CLI target table.

    Imported lazily so ``repro.serve`` stays importable without pulling
    the whole experiment runner in at module load.
    """
    from repro.experiments.runner import TARGETS

    return {name: TARGETS[name] for name in SERVE_TARGETS}


class ServeApp:
    """The scenario-serving service (transport-independent)."""

    def __init__(self, cache: Optional[ResultCache] = None,
                 workers: int = 2, queue_limit: int = 64,
                 targets: Optional[Dict[str, Callable]] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.cache = cache
        self.targets = targets if targets is not None else default_targets()
        self.queue_limit = queue_limit
        self.registry = RunRegistry()
        self.metrics = ServerMetrics()
        self._plans = BoundedMemo(PLANS_HELD)
        self._queue: "queue.Queue[Optional[RunRecord]]" = queue.Queue()
        self._draining = threading.Event()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"satr-serve-worker-{index}",
                             daemon=True)
            for index in range(workers)
        ]
        self.metrics.register_gauge(
            "satr_serve_queue_depth",
            lambda: float(self.registry.count_state("queued")))
        self.metrics.register_gauge(
            "satr_serve_inflight_runs",
            lambda: float(self.registry.count_state("running")))
        self.metrics.register_gauge(
            "satr_serve_draining",
            lambda: 1.0 if self._draining.is_set() else 0.0)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        for worker in self._workers:
            worker.start()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Refuse new runs; accepted runs keep executing."""
        self._draining.set()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Finish every accepted run and stop the workers.

        FIFO ordering guarantees queued runs execute before the
        stop sentinels; returns True when every worker exited.
        """
        self.begin_drain()
        for _ in self._workers:
            self._queue.put(None)
        finished = True
        for worker in self._workers:
            if worker.is_alive():
                worker.join(timeout)
                finished = finished and not worker.is_alive()
        return finished

    # -- submission -----------------------------------------------------

    def submit(self, request: RunRequest) -> Tuple[RunRecord, bool]:
        """Accept (or coalesce) one request; raises when refusing."""
        if self._draining.is_set():
            raise ServiceUnavailable("server is draining; try another "
                                     "replica")
        if self.registry.count_state("queued") >= self.queue_limit:
            raise ServiceUnavailable(
                f"run queue is full ({self.queue_limit} waiting)")
        if request.target not in self.targets:
            # Defense in depth; schema validation already enforces it.
            raise RequestError([f"$.target: unknown target "
                                f"{request.target!r}"])
        record, created = self.registry.submit(request)
        if created:
            self._queue.put(record)
        else:
            self.metrics.coalesced()
        return record, created

    # -- execution ------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            record = self._queue.get()
            if record is None:
                return
            self._execute(record)

    def _execute(self, record: RunRecord) -> None:
        self.registry.mark_running(record)
        request = record.request
        try:
            telemetry = Telemetry(
                observer=lambda cell, position, total:
                    self.registry.add_cell_event(
                        record, cell.name, cell.cached, cell.elapsed,
                        position, total))
            plan = self._plan(request)
            with open_executor(request.jobs) as executor:
                orchestrator = Orchestrator(
                    cache=None if request.no_cache else self.cache,
                    telemetry=telemetry,
                    executor=executor,
                )
                payloads = orchestrator.run(plan.cells)
            report = plan.render(payloads)
            if telemetry.fallbacks:
                self.metrics.executor_fallbacks(len(telemetry.fallbacks))
            self.registry.finish(record, report,
                                 hits=telemetry.hits,
                                 misses=telemetry.misses)
            self.metrics.run_finished(
                request.target, "done",
                seconds=self._latency(record),
                hits=telemetry.hits, misses=telemetry.misses)
        except Exception as exc:  # A bad run must not kill the worker.
            self.registry.fail(record, f"{type(exc).__name__}: {exc}")
            self.metrics.run_finished(request.target, "failed",
                                      seconds=self._latency(record))

    def _plan(self, request: RunRequest) -> "TargetPlan":
        """The request's plan, built on the first request of its key."""
        key = (request.target, request.scale, request.seed, request.policy)
        plan = self._plans.get(key)
        if plan is None:
            planner = self.targets[request.target]
            # The policy kwarg is only passed when non-default so
            # custom (scale, seed)-only planners keep working.
            if request.policy != "baseline":
                plan = planner(SCALES[request.scale], request.seed,
                               policy=request.policy)
            else:
                plan = planner(SCALES[request.scale], request.seed)
            self._plans.put(key, plan)
        return plan

    @staticmethod
    def _latency(record: RunRecord) -> Optional[float]:
        """Submit-to-finish wall seconds (queueing included)."""
        if record.finished_s is None:
            return None
        return record.finished_s - record.created_s

    # -- responses ------------------------------------------------------

    def run_response(self, record: RunRecord,
                     coalesced: bool) -> Dict[str, Any]:
        """The ``POST /run`` / ``GET /runs/<id>`` body for one record."""
        body = record.summary()
        body["coalesced"] = coalesced
        if record.state == "done":
            body["report"] = record.report
        return body


# ---------------------------------------------------------------------------
# HTTP layer.
# ---------------------------------------------------------------------------

def _endpoint_of(method: str, path: str) -> str:
    """The low-cardinality endpoint label for the request counter."""
    if path == "/run" and method == "POST":
        return "/run"
    if path in ("/runs", "/metrics", "/healthz"):
        return path
    if path.startswith("/runs/"):
        if path.endswith("/events"):
            return "/runs/<id>/events"
        if path.endswith("/report"):
            return "/runs/<id>/report"
        return "/runs/<id>"
    return "other"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"satr-serve/{__version__}"
    #: TCP_NODELAY: headers and body go out in two sends, so with Nagle
    #: on every later reply on a kept-alive connection would wait for
    #: the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- response helpers ----------------------------------------------

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        data = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        self._send_bytes(status, data, "application/json")

    def _send_bytes(self, status: int, data: bytes,
                    content_type: str) -> None:
        self.app.metrics.response(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _record_or_404(self, run_id: str) -> Optional[RunRecord]:
        record = self.app.registry.get(run_id)
        if record is None:
            self._send_json(404, {"error": f"unknown run {run_id!r}"})
        return record

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        self.app.metrics.request(_endpoint_of("GET", path))
        if path == "/healthz":
            if self.app.draining:
                self._send_json(503, {"status": "draining"})
            else:
                self._send_json(200, {
                    "status": "ok",
                    "version": __version__,
                    "targets": sorted(self.app.targets),
                })
            return
        if path == "/metrics":
            self._send_bytes(200,
                             self.app.metrics.exposition().encode("utf-8"),
                             PROMETHEUS_CONTENT_TYPE)
            return
        if path == "/runs":
            self._send_json(200, {"runs": self.app.registry.list_runs()})
            return
        if path.startswith("/runs/"):
            parts = path[len("/runs/"):].split("/")
            record = self._record_or_404(parts[0])
            if record is None:
                return
            if len(parts) == 1:
                self._send_json(200, self.app.run_response(
                    record, coalesced=False))
                return
            if parts[1:] == ["report"]:
                self._send_report(record)
                return
            if parts[1:] == ["events"]:
                self._stream_events(record)
                return
        self._send_json(404, {"error": f"no such path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        self.app.metrics.request(_endpoint_of("POST", path))
        if path != "/run":
            self._send_json(404, {"error": f"no such path {path!r}"})
            return
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        try:
            request = parse_run_request(body,
                                        targets=sorted(self.app.targets))
        except RequestError as exc:
            self._send_json(400, {"error": "invalid request",
                                  "problems": exc.problems})
            return
        try:
            record, created = self.app.submit(request)
        except ServiceUnavailable as exc:
            self._send_json(503, {"error": str(exc)})
            return
        if not request.wait:
            self._send_json(202, self.app.run_response(
                record, coalesced=not created))
            return
        self.app.registry.wait_finished(record)
        status = 200 if record.state == "done" else 500
        self._send_json(status, self.app.run_response(
            record, coalesced=not created))

    # -- report + event stream -----------------------------------------

    def _send_report(self, record: RunRecord) -> None:
        """The raw report bytes — the CLI byte-identity endpoint."""
        if record.state == "failed":
            self._send_json(500, {"error": record.error or "failed"})
            return
        if record.state != "done":
            self._send_json(409, {"error": f"run {record.id} is "
                                           f"{record.state}, not done"})
            return
        self._send_bytes(200, (record.report or "").encode("utf-8"),
                         "text/plain; charset=utf-8")

    def _stream_events(self, record: RunRecord) -> None:
        """Chunked newline-delimited JSON until the run finishes."""
        self.app.metrics.response(200)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        cursor = 0
        try:
            while True:
                events, finished = self.app.registry.events_since(
                    record, cursor, timeout=STREAM_POLL_SECONDS)
                for event in events:
                    self._write_chunk(
                        (json.dumps(event, sort_keys=True) + "\n")
                        .encode("utf-8"))
                cursor += len(events)
                if finished and not events:
                    break
                if not events and not finished:
                    self._write_chunk(b'{"type":"ping"}\n')
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # Client went away mid-stream; nothing to clean up.
        self.close_connection = True

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()


class ServeServer(HTTPServer):
    """An HTTP server bound to one :class:`ServeApp`, on handler threads
    that serve one connection after another."""

    def __init__(self, address: Tuple[str, int], app: ServeApp,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose
        #: Accepted ``(request, client_address)`` pairs; a None tells one
        #: handler thread to exit.
        self._connections: "queue.SimpleQueue[Optional[tuple]]" = (
            queue.SimpleQueue())
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        #: Handler threads waiting for a connection, or about to.
        self._idle = 0

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request: socket.socket,
                        client_address: Any) -> None:
        """Hand the connection to an idle handler thread, else a new one."""
        with self._lock:
            thread = None
            if self._idle:
                self._idle -= 1
            else:
                thread = threading.Thread(
                    target=self._serve_connections,
                    name=f"satr-serve-handler-{len(self._threads)}",
                    daemon=True)
                self._threads.append(thread)
        if thread is not None:
            thread.start()
        self._connections.put((request, client_address))

    def _serve_connections(self) -> None:
        """One handler thread: serve queued connections until told to
        exit."""
        while True:
            connection = self._connections.get()
            if connection is None:
                return
            request, client_address = connection
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._lock:
                self._idle += 1

    def server_close(self) -> None:
        """Close the listener; each handler thread exits once its
        connection ends."""
        super().server_close()
        with self._lock:
            for _ in self._threads:
                self._connections.put(None)


def make_server(host: str, port: int, app: ServeApp,
                verbose: bool = False) -> ServeServer:
    """Bind (port 0 = ephemeral), start the workers, return the server."""
    server = ServeServer((host, port), app, verbose=verbose)
    app.start()
    return server
