"""The serve subsystem: request model, registry, HTTP daemon, loadgen.

The load-bearing guarantees:

* a run's report (and ``GET /runs/<id>/report`` bytes) is identical to
  the CLI's for the same target/scale/seed, computed or cached;
* identical in-flight requests coalesce into one execution;
* drain finishes in-flight runs, flushes them to the cache, and
  refuses new requests with 503;
* the server reuses its handler threads and keeps a bounded history.
"""

import http.client
import json
import random
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.common import SCALES
from repro.experiments.runner import RunContext, TargetPlan, run_target
from repro.metrics import PROMETHEUS_CONTENT_TYPE, parse_exposition
from repro.orchestrate import Cell, Orchestrator, ResultCache
from repro.serve import (
    RequestError,
    RunRequest,
    RunRegistry,
    ServeApp,
    make_server,
    run_loadgen,
    validate_schema,
)
from repro.serve import app as app_module
from repro.serve.app import ServiceUnavailable
from repro.serve.model import SERVE_TARGETS
from repro.serve.registry import FINISHED_RUNS_KEPT, RUN_STATES
from repro.serve.loadgen import write_report

# A handler, worker or serving thread that dies fails its test.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")

# ---------------------------------------------------------------------------
# Cheap controllable targets (module-level: resolve_cell_fn finds them).
# ---------------------------------------------------------------------------

_EXECUTIONS = []                 # tags of cells that actually computed
_GATE = threading.Event()        # released to let gated cells finish
_STARTED = threading.Event()     # set when a gated cell begins


def echo_cell(params):
    _EXECUTIONS.append(params["tag"])
    return {"tag": params["tag"], "seed": params["seed"],
            "scale": params["scale"]}


def gated_cell(params):
    _STARTED.set()
    if not _GATE.wait(timeout=30):
        raise RuntimeError("gate never released")
    _EXECUTIONS.append(params["tag"])
    return {"tag": params["tag"], "seed": params["seed"],
            "scale": params["scale"]}


def failing_cell(params):
    raise RuntimeError("deliberate test failure")


def _planner(fn_name, tag):
    def planner(scale, seed):
        cells = [Cell(
            experiment=tag, cell_id=f"{scale.name}-{seed}",
            fn=f"tests.test_serve:{fn_name}",
            params={"tag": tag, "seed": seed, "scale": scale.name},
        )]
        return TargetPlan(cells, lambda ps: json.dumps(ps, sort_keys=True))
    return planner


def _multi_planner(count, fn_name="echo_cell"):
    """A planner of ``count`` cells (a parallel run has work)."""
    def planner(scale, seed):
        cells = [Cell(
            experiment="multi", cell_id=f"{scale.name}-{seed}-{n}",
            fn=f"tests.test_serve:{fn_name}",
            params={"tag": f"multi-{n}", "seed": seed, "scale": scale.name},
        ) for n in range(count)]
        return TargetPlan(cells, lambda ps: json.dumps(ps, sort_keys=True))
    return planner


def _echo_then_gated_planner(scale, seed):
    """Two cells: an echo, then one that waits for the gate."""
    cells = [Cell(
        experiment=tag, cell_id=f"{scale.name}-{seed}",
        fn=f"tests.test_serve:{fn_name}",
        params={"tag": tag, "seed": seed, "scale": scale.name},
    ) for fn_name, tag in (("echo_cell", "first"), ("gated_cell", "second"))]
    return TargetPlan(cells, lambda ps: json.dumps(ps, sort_keys=True))


FAKE_TARGETS = {
    "fork": _planner("echo_cell", "fork"),
    "launch": _planner("echo_cell", "launch"),
    "gated": _planner("gated_cell", "gated"),
    "boom": _planner("failing_cell", "boom"),
    "echo-then-gated": _echo_then_gated_planner,
    "six-gated": _multi_planner(6, "gated_cell"),
}


# ---------------------------------------------------------------------------
# HTTP helpers.
# ---------------------------------------------------------------------------

def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


def _get_json(url):
    status, body, _ = _get(url)
    return status, json.loads(body)


def _post(url, body, timeout=30):
    request = urllib.request.Request(
        f"{url}/run", data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _stream(url, run_id):
    """An open ``GET /runs/<id>/events`` response (and its connection)."""
    host, port = url.split("//")[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    connection.request("GET", f"/runs/{run_id}/events")
    response = connection.getresponse()
    assert response.status == 200
    return connection, response


@pytest.fixture
def server(tmp_path):
    """A running daemon over the fake target table (app at ``.app``)."""
    _GATE.clear()
    _STARTED.clear()
    del _EXECUTIONS[:]
    cache = ResultCache(str(tmp_path / "cache"))
    app = ServeApp(cache=cache, workers=2, targets=dict(FAKE_TARGETS))
    server = make_server("127.0.0.1", 0, app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        _GATE.set()
        app.drain(timeout=10)
        server.shutdown()
        server.server_close()


@pytest.fixture
def served(server):
    """The daemon's app, its URL and its shared cache."""
    yield (server.app, f"http://127.0.0.1:{server.port}",
           server.app.cache)


# ---------------------------------------------------------------------------
# Schema validation + request model.
# ---------------------------------------------------------------------------

class TestValidateSchema:
    def test_accepts_conforming_object(self):
        schema = {"type": "object", "required": ["a"],
                  "additionalProperties": False,
                  "properties": {"a": {"type": "integer", "minimum": 0},
                                 "b": {"type": "string",
                                       "enum": ["x", "y"]}}}
        assert validate_schema({"a": 3, "b": "x"}, schema) == []

    def test_reports_every_problem_at_once(self):
        schema = {"type": "object", "required": ["a"],
                  "additionalProperties": False,
                  "properties": {"a": {"type": "integer"}}}
        problems = validate_schema({"z": 1, "q": 2}, schema)
        assert len(problems) == 3  # missing a, unknown q, unknown z.

    def test_booleans_are_not_integers(self):
        assert validate_schema(True, {"type": "integer"})
        assert validate_schema(3, {"type": "boolean"})

    def test_bounds_and_enum(self):
        assert validate_schema(-1, {"type": "integer", "minimum": 0})
        assert validate_schema(99, {"type": "integer", "maximum": 8})
        assert validate_schema("z", {"type": "string", "enum": ["a"]})

    def test_non_object_where_object_expected(self):
        assert validate_schema([1], {"type": "object"})


class TestRunRequest:
    def test_defaults(self):
        request = RunRequest.from_json({"target": "fork"})
        assert request.scale == "quick"
        assert request.seed == 7
        assert request.jobs == 1
        assert not request.no_cache
        assert request.wait

    def test_rejects_with_problem_list(self):
        with pytest.raises(RequestError) as excinfo:
            RunRequest.from_json({"target": "nope", "seed": -1,
                                  "bogus": True})
        problems = excinfo.value.problems
        assert len(problems) == 3

    def test_key_covers_semantics_not_execution(self):
        base = RunRequest(target="fork", scale="quick", seed=7)
        assert base.key() == RunRequest(target="fork", scale="quick",
                                        seed=7, jobs=4, wait=False).key()
        assert base.key() != RunRequest(target="fork", scale="quick",
                                        seed=8).key()
        assert base.key() != RunRequest(target="fork", scale="quick",
                                        seed=7, no_cache=True).key()

    def test_policy_field_defaults_and_keys(self):
        request = RunRequest.from_json({"target": "fork",
                                        "policy": "victima"})
        assert request.policy == "victima"
        assert RunRequest.from_json({"target": "fork"}).policy == "baseline"
        base = RunRequest(target="fork")
        assert base.key() != RunRequest(target="fork",
                                        policy="victima").key()
        assert request.describe()["policy"] == "victima"

    def test_unknown_policy_rejected_with_problem(self):
        with pytest.raises(RequestError) as excinfo:
            RunRequest.from_json({"target": "fork", "policy": "nope"})
        assert any(".policy" in problem
                   for problem in excinfo.value.problems)


class TestRunRegistry:
    def test_identical_inflight_requests_share_a_record(self):
        registry = RunRegistry()
        request = RunRequest(target="fork")
        first, created = registry.submit(request)
        second, second_created = registry.submit(request)
        assert created and not second_created
        assert first is second and first.clients == 2

    def test_finished_records_do_not_coalesce(self):
        registry = RunRegistry()
        request = RunRequest(target="fork")
        first, _ = registry.submit(request)
        registry.mark_running(first)
        registry.finish(first, "report", hits=1, misses=0)
        assert first.cached and first.state == "done"
        second, created = registry.submit(request)
        assert created and second is not first

    def test_events_are_sequenced(self):
        registry = RunRegistry()
        record, _ = registry.submit(RunRequest(target="fork"))
        registry.mark_running(record)
        registry.add_cell_event(record, "a/b", False, 0.5, 1, 2)
        registry.fail(record, "boom")
        assert [e["seq"] for e in record.events] == [0, 1, 2, 3]
        events, finished = registry.events_since(record, 2, timeout=1)
        assert finished and [e["type"] for e in events] == ["cell",
                                                           "state"]

    def test_count_state_matches_a_scan_of_every_record(self):
        """The per-state counts follow submissions, coalesced joins and
        every transition, for every state at every step."""
        rng = random.Random(15)
        registry = RunRegistry()
        requests = [RunRequest(target=target, seed=seed)
                    for target in ("fork", "ipc") for seed in (1, 2, 3)]
        records = []

        def scan(state):
            return sum(1 for record in records if record.state == state)

        for _ in range(400):
            live = [r for r in records if not r.finished]
            action = rng.random()
            if action < 0.4 or not live:
                record, created = registry.submit(rng.choice(requests))
                if created:
                    records.append(record)
            else:
                record = rng.choice(live)
                if record.state == "queued" and action < 0.7:
                    registry.mark_running(record)
                elif action < 0.9:
                    registry.finish(record, "report", hits=1, misses=0)
                else:
                    registry.fail(record, "boom")
            for state in RUN_STATES:
                assert registry.count_state(state) == scan(state), state
        assert registry.count_state("done") and registry.count_state("failed")
        assert registry.count_state("no-such-state") == 0


# ---------------------------------------------------------------------------
# The HTTP daemon.
# ---------------------------------------------------------------------------

class TestHttpBasics:
    def test_healthz(self, served):
        _, url, _ = served
        status, body = _get_json(f"{url}/healthz")
        assert status == 200 and body["status"] == "ok"
        assert "gated" in body["targets"]

    def test_kept_alive_connection_has_no_ack_stall(self, served):
        """Replies after the first on one connection must not wait for
        the client's delayed ACK (Nagle's algorithm, ~40 ms each)."""
        _, url, _ = served
        connection = http.client.HTTPConnection(url[len("http://"):],
                                                timeout=30)
        try:
            elapsed = []
            for _ in range(5):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert sorted(elapsed)[2] < 0.020, elapsed

    def test_unknown_paths_are_404(self, served):
        _, url, _ = served
        assert _get_json(f"{url}/nope")[0] == 404
        assert _get_json(f"{url}/runs/run-9999")[0] == 404
        assert _post(f"{url}/extra", {})[0] == 404

    def test_invalid_bodies_are_400_with_problems(self, served):
        _, url, _ = served
        status, body = _post(url, {"seed": 7})
        assert status == 400
        assert any("target" in p for p in body["problems"])
        status, body = _post(url, {"target": "fork", "scale": "huge"})
        assert status == 400
        status, body = _post(url, {"target": "fork", "policy": "bogus"})
        assert status == 400
        assert any(".policy" in p for p in body["problems"])
        request = urllib.request.Request(
            f"{url}/run", data=b"not json{",
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            urllib.request.urlopen(request, timeout=30)
            raise AssertionError("malformed body accepted")
        except urllib.error.HTTPError as error:
            assert error.code == 400

    def test_run_then_cache_hit(self, served):
        app, url, _ = served
        body = {"target": "fork", "scale": "quick", "seed": 3}
        status, first = _post(url, body)
        assert status == 200 and first["state"] == "done"
        assert not first["cached"] and first["misses"] == 1
        expected = json.dumps(
            [{"scale": "quick", "seed": 3, "tag": "fork"}],
            sort_keys=True)
        assert first["report"] == expected
        status, second = _post(url, body)
        assert status == 200 and second["cached"]
        assert second["hits"] == 1 and second["misses"] == 0
        assert second["report"] == expected
        assert second["id"] != first["id"]
        assert _EXECUTIONS == ["fork"]  # One compute, one replay.
        values = app.metrics.snapshot()
        assert values["satr_serve_cache_hits_total"] == 1
        assert values["satr_serve_cache_misses_total"] == 1

    def test_async_submit_poll_and_report_bytes(self, served):
        _, url, _ = served
        status, body = _post(url, {"target": "launch", "seed": 5,
                                   "wait": False})
        assert status == 202
        run_id = body["id"]
        assert _get_json(f"{url}/runs")[1]["runs"]
        for _ in range(200):
            status, detail = _get_json(f"{url}/runs/{run_id}")
            if detail["state"] == "done":
                break
            time.sleep(0.02)
        assert detail["state"] == "done"
        status, raw, headers = _get(f"{url}/runs/{run_id}/report")
        assert status == 200
        assert raw.decode("utf-8") == detail["report"]

    def test_failed_run_is_500_with_error(self, served):
        _, url, _ = served
        status, body = _post(url, {"target": "boom"})
        assert status == 500
        assert body["state"] == "failed"
        assert "RuntimeError" in body["error"]
        assert _get(f"{url}/runs/{body['id']}/report")[0] == 500

    def test_metrics_exposition_parses(self, served):
        _, url, _ = served
        _post(url, {"target": "fork", "seed": 11})
        status, raw, headers = _get(f"{url}/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        parsed = parse_exposition(raw.decode("utf-8"))
        metrics = {s["metric"] for s in parsed["samples"]}
        assert "satr_serve_requests_total" in metrics
        assert "satr_serve_run_seconds" in metrics
        target_labels = {s["labels"].get("target")
                         for s in parsed["samples"]
                         if s["metric"] == "satr_serve_run_seconds"}
        assert target_labels == {"fork"}


class TestHandlerThreads:
    def test_sequential_connections_reuse_a_thread(self, server):
        url = f"http://127.0.0.1:{server.port}"
        for _ in range(50):
            assert _get_json(f"{url}/healthz")[0] == 200
            # The client reads the reply before the handler thread is
            # idle again; a connection that came sooner would rightly
            # start a second thread.
            deadline = time.monotonic() + 5
            while server._idle < len(server._threads):
                assert time.monotonic() < deadline, "no idle thread"
                time.sleep(0.001)
        assert len(server._threads) == 1

    def test_open_event_streams_do_not_block_healthz(self, served):
        _, url, _ = served
        status, body = _post(url, {"target": "gated", "seed": 8,
                                   "wait": False})
        assert status == 202
        assert _STARTED.wait(timeout=10)
        streams = [_stream(url, body["id"]) for _ in range(4)]
        try:
            for _, response in streams:
                assert json.loads(response.readline())["state"] == "queued"
            started = time.perf_counter()
            status, health = _get_json(f"{url}/healthz")
            assert status == 200 and health["status"] == "ok"
            assert time.perf_counter() - started < 1.0
        finally:
            _GATE.set()
            for connection, response in streams:
                response.read()
                connection.close()

    def test_a_raising_handler_leaves_later_connections_served(
            self, server, monkeypatch):
        app = server.app
        url = f"http://127.0.0.1:{server.port}"

        def broken():
            raise RuntimeError("deliberate handler failure")

        monkeypatch.setattr(app.registry, "list_runs", broken)
        with pytest.raises((http.client.HTTPException, OSError)):
            _get(f"{url}/runs")
        monkeypatch.undo()
        for _ in range(3):
            assert _get_json(f"{url}/healthz")[0] == 200
        assert _get_json(f"{url}/runs")[1] == {"runs": []}
        assert all(thread.is_alive() for thread in server._threads)

    def test_server_close_stops_every_handler_thread(self):
        app = ServeApp(cache=None, workers=1, targets=dict(FAKE_TARGETS))
        server = make_server("127.0.0.1", 0, app)
        serving = threading.Thread(target=server.serve_forever,
                                   daemon=True)
        serving.start()
        url = f"http://127.0.0.1:{server.port}"
        # Two kept-alive connections at once need two handler threads.
        first = http.client.HTTPConnection("127.0.0.1", server.port,
                                           timeout=30)
        first.request("GET", "/healthz")
        assert first.getresponse().read()
        assert _get_json(f"{url}/healthz")[0] == 200
        first.close()
        assert len(server._threads) == 2
        app.drain(timeout=10)
        server.shutdown()
        server.server_close()
        serving.join(timeout=2)
        deadline = time.monotonic() + 2.0
        for thread in server._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not serving.is_alive()
        assert not any(thread.is_alive() for thread in server._threads)


class TestBoundedHistory:
    def test_oldest_finished_runs_go_first(self, served):
        app, url, _ = served
        registry = app.registry
        # Submitted first, still running when every later run is done.
        running, _ = registry.submit(RunRequest(target="launch", seed=1))
        registry.mark_running(running)
        finished = []
        for seed in range(FINISHED_RUNS_KEPT + 5):
            record, _ = registry.submit(RunRequest(target="fork",
                                                   seed=seed))
            registry.mark_running(record)
            registry.finish(record, "report", hits=1, misses=0)
            finished.append(record)
        for record in finished[:5]:
            assert registry.get(record.id) is None
            assert _get_json(f"{url}/runs/{record.id}")[0] == 404
        assert _get_json(f"{url}/runs/{finished[5].id}")[0] == 200
        assert registry.get(running.id) is running
        held = [running] + finished[5:]
        rows = _get_json(f"{url}/runs")[1]["runs"]
        assert [row["id"] for row in rows] == [r.id for r in held]
        for state in RUN_STATES:
            assert registry.count_state(state) == sum(
                1 for record in held if record.state == state), state
        # Finishing it evicts the oldest finished record, not itself.
        registry.finish(running, "report", hits=1, misses=0)
        assert registry.get(running.id) is running
        assert registry.get(finished[5].id) is None
        assert registry.count_state("done") == FINISHED_RUNS_KEPT


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_execution(self,
                                                               served):
        app, url, _ = served
        body = {"target": "gated", "seed": 9}
        results = []

        def issue():
            results.append(_post(url, body, timeout=60))

        first = threading.Thread(target=issue)
        first.start()
        assert _STARTED.wait(timeout=10)
        second = threading.Thread(target=issue)
        second.start()
        record = app.registry.get("run-0001")
        for _ in range(200):
            if record.clients == 2:
                break
            time.sleep(0.02)
        assert record.clients == 2
        _GATE.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert len(results) == 2
        (status_a, a), (status_b, b) = results
        assert status_a == status_b == 200
        assert a["id"] == b["id"]
        assert a["report"] == b["report"]
        assert {a["coalesced"], b["coalesced"]} == {True, False}
        assert _EXECUTIONS == ["gated"]
        values = app.metrics.snapshot()
        assert values["satr_serve_coalesced_requests_total"] == 1


class TestNoCacheOverlap:
    def test_no_cache_twin_computes_its_own_cell(self, served):
        """A ``no_cache`` request that overlaps an identical cached one
        has its own record and never reports a cache hit."""
        app, url, _ = served
        body = {"target": "gated", "seed": 9}
        results = {}

        def issue(name, request):
            results[name] = _post(url, request, timeout=60)

        threads = [
            threading.Thread(target=issue, args=("cached", body)),
            threading.Thread(target=issue,
                             args=("fresh", dict(body, no_cache=True))),
        ]
        threads[0].start()
        assert _STARTED.wait(timeout=10)
        _STARTED.clear()
        threads[1].start()
        # Hold the cached run until the no_cache run is computing its
        # own copy of the cell.  Bounded: a run that waits on the cached
        # one never gets there, and the asserts below say so.
        _STARTED.wait(timeout=10)
        _GATE.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        (status_a, a), (status_b, b) = results["cached"], results["fresh"]
        assert status_a == status_b == 200
        assert a["id"] != b["id"]
        assert a["report"] == b["report"]
        assert (b["cached"], b["hits"], b["misses"]) == (False, 0, 1)
        assert _EXECUTIONS == ["gated", "gated"]
        assert app.metrics.snapshot()["satr_serve_cache_hits_total"] == 0


class TestHeldPlans:
    """Planning is pure, so the app plans each request key once."""

    def test_a_repeated_key_plans_once(self, tmp_path):
        planned = []

        def planner(scale, seed, policy="baseline"):
            planned.append((scale.name, seed, policy))
            return FAKE_TARGETS["fork"](scale, seed)

        app = ServeApp(cache=ResultCache(str(tmp_path)), workers=1,
                       targets={"fork": planner})
        app.start()
        try:
            for request in (RunRequest(target="fork", seed=3),
                            RunRequest(target="fork", seed=3),
                            RunRequest(target="fork", seed=3,
                                       no_cache=True),
                            RunRequest(target="fork", seed=4),
                            RunRequest(target="fork", seed=3,
                                       policy="victima"),
                            RunRequest(target="fork", seed=3,
                                       scale="default")):
                record, _ = app.submit(request)
                assert app.registry.wait_finished(record, timeout=30)
                assert record.state == "done", record.error
        finally:
            app.drain(timeout=10)
        assert planned == [("quick", 3, "baseline"), ("quick", 4, "baseline"),
                           ("quick", 3, "victima"), ("default", 3, "baseline")]

    def test_the_oldest_plan_goes_first(self, monkeypatch):
        monkeypatch.setattr(app_module, "PLANS_HELD", 2)
        app = ServeApp(cache=None, targets=dict(FAKE_TARGETS))
        first, second, third = (RunRequest(target="fork", seed=seed)
                                for seed in (1, 2, 3))
        held = [app._plan(request) for request in (first, second, third)]
        assert app._plan(third) is held[2]
        assert app._plan(second) is held[1]
        assert app._plan(first) is not held[0]

    def test_threads_sharing_a_tiny_memo_get_their_own_plans(
            self, monkeypatch):
        """Both run workers plan: with room for 2 of 6 keys, plans,
        evictions and re-plans interleave."""
        monkeypatch.setattr(app_module, "PLANS_HELD", 2)
        app = ServeApp(cache=None, targets=dict(FAKE_TARGETS))
        requests = [RunRequest(target=target, seed=seed)
                    for target in ("fork", "launch") for seed in (1, 2, 3)]
        wrong = []

        def worker(offset: int) -> None:
            for index in range(2000):
                request = requests[(offset + index) % len(requests)]
                params = app._plan(request).cells[0].params
                if (params["tag"], params["seed"]) != (request.target,
                                                       request.seed):
                    wrong.append(request)
                if len(app._plans) > 2:
                    wrong.append("over the bound")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestEventStream:
    def test_stream_follows_a_live_run(self, served):
        _, url, _ = served
        status, body = _post(url, {"target": "gated", "seed": 4,
                                   "wait": False})
        assert status == 202
        run_id = body["id"]
        assert _STARTED.wait(timeout=10)

        connection, response = _stream(url, run_id)
        assert response.headers["Content-Type"] == "application/x-ndjson"
        lines = [json.loads(response.readline())
                 for _ in range(2)]  # queued + running, pre-release.
        assert [e["state"] for e in lines] == ["queued", "running"]
        _GATE.set()
        rest = [json.loads(line) for line in response if line.strip()]
        connection.close()
        events = lines + [e for e in rest if e.get("type") != "ping"]
        assert events[-1] == {"seq": 3, "state": "done", "type": "state",
                              "cached": False, "hits": 0, "misses": 1}
        cell_events = [e for e in events if e["type"] == "cell"]
        assert len(cell_events) == 1
        assert cell_events[0]["name"] == "gated/quick-4"
        assert [e["seq"] for e in events] == [0, 1, 2, 3]

    def test_cell_event_lands_while_the_run_goes(self, served):
        app, url, _ = served
        status, body = _post(url, {"target": "echo-then-gated", "seed": 5,
                                   "wait": False})
        assert status == 202
        # The second cell has started, so the first has finished.
        assert _STARTED.wait(timeout=10)
        record = app.registry.get(body["id"])
        events, finished = app.registry.events_since(record, 0, timeout=0)
        assert not finished
        assert [e["name"] for e in events if e["type"] == "cell"] == [
            "first/quick-5"]
        _GATE.set()
        assert app.registry.wait_finished(record, timeout=30)
        assert [e["name"] for e in record.events if e["type"] == "cell"] \
            == ["first/quick-5", "second/quick-5"]
        assert record.state == "done"

    def test_stream_replays_a_finished_run(self, served):
        _, url, _ = served
        _GATE.set()
        status, body = _post(url, {"target": "fork", "seed": 6})
        assert status == 200
        status, raw, _ = _get(f"{url}/runs/{body['id']}/events")
        events = [json.loads(line) for line in raw.splitlines() if line]
        assert [e["type"] for e in events] == ["state", "state", "cell",
                                               "state"]
        assert events[-1]["state"] == "done"


class TestOneWakePerRun:
    def test_waiter_wakes_once_while_the_stream_gets_every_cell(
            self, served, monkeypatch):
        app, url, _ = served
        ended = app.registry._ended
        calls = {"notify_all": 0, "wait": 0}
        notify_all, wait = ended.notify_all, ended.wait

        def counted_notify_all():
            calls["notify_all"] += 1
            notify_all()

        def counted_wait(timeout=None):
            calls["wait"] += 1
            return wait(timeout)

        monkeypatch.setattr(ended, "notify_all", counted_notify_all)
        monkeypatch.setattr(ended, "wait", counted_wait)
        results = []
        poster = threading.Thread(target=lambda: results.append(
            _post(url, {"target": "six-gated", "seed": 3}, timeout=60)))
        poster.start()
        assert _STARTED.wait(timeout=10)
        deadline = time.monotonic() + 10
        while calls["wait"] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert calls["wait"] == 1  # The POST is waiting for the run.
        connection, response = _stream(url, "run-0001")
        _GATE.set()
        events = [json.loads(line) for line in response if line.strip()]
        connection.close()
        poster.join(timeout=30)
        assert not poster.is_alive()
        (status, body), = results
        assert status == 200 and body["state"] == "done"
        assert [e["name"] for e in events if e["type"] == "cell"] == [
            f"multi/quick-3-{n}" for n in range(6)]
        assert events[-1]["state"] == "done"
        assert calls == {"notify_all": 1, "wait": 1}


class TestGracefulDrain:
    def test_drain_finishes_inflight_flushes_and_refuses(self, served):
        app, url, cache = served
        status, body = _post(url, {"target": "gated", "seed": 2,
                                   "wait": False})
        assert status == 202
        run_id = body["id"]
        assert _STARTED.wait(timeout=10)

        app.begin_drain()
        status, refused = _post(url, {"target": "fork", "seed": 1})
        assert status == 503 and "draining" in refused["error"]
        assert _get_json(f"{url}/healthz")[0] == 503

        _GATE.set()
        assert app.drain(timeout=30)
        record = app.registry.get(run_id)
        assert record.state == "done"
        # The in-flight run was flushed to the shared cache.
        digest = FAKE_TARGETS["gated"](SCALES["quick"],
                                       2).cells[0].digest()
        stored = cache.load(digest)
        assert stored is not None
        assert stored["payload"]["tag"] == "gated"
        # Still refusing after the drain completes.
        assert _post(url, {"target": "fork", "seed": 1})[0] == 503

    def test_queue_limit_refuses_with_503(self):
        _GATE.clear()
        _STARTED.clear()
        app = ServeApp(cache=None, workers=1, queue_limit=1,
                       targets=dict(FAKE_TARGETS))
        app.start()
        try:
            app.submit(RunRequest(target="gated", seed=1))
            assert _STARTED.wait(timeout=10)  # Worker is now occupied.
            app.submit(RunRequest(target="gated", seed=2))  # Queued.
            with pytest.raises(ServiceUnavailable):
                app.submit(RunRequest(target="gated", seed=3))
        finally:
            _GATE.set()
            assert app.drain(timeout=30)


# ---------------------------------------------------------------------------
# loadgen.
# ---------------------------------------------------------------------------

class TestLoadgen:
    def test_warm_cache_loadgen_report(self, served, tmp_path):
        _, url, _ = served
        report = run_loadgen(url, ["fork"], scale="quick", seed=21,
                             concurrency=2, requests=6, warmup=True,
                             timeout_s=60)
        overall = report["overall"]
        assert overall["count"] == 6
        assert report["errors"] == 0
        # Warm-up computed the only cell; measured traffic is all
        # cache hits (or coalesced onto a hit-backed run).
        assert overall["cache_hit_runs"] == 6
        assert (overall["p50_ms"] <= overall["p95_ms"]
                <= overall["p99_ms"])
        assert overall["throughput_rps"] > 0
        assert _EXECUTIONS == ["fork"]
        path = tmp_path / "BENCH_serve_test.json"
        write_report(report, str(path))
        assert json.loads(path.read_text())["overall"]["count"] == 6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            run_loadgen("http://x", [], requests=1)
        with pytest.raises(ValueError):
            run_loadgen("http://x", ["fork"], concurrency=0)


# ---------------------------------------------------------------------------
# The CLI byte-identity contract (real targets, real workload).
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCliByteIdentity:
    def test_serve_report_matches_cli_fork_quick(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        app = ServeApp(cache=cache, workers=1)
        server = make_server("127.0.0.1", 0, app)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.port}"
        try:
            body = {"target": "fork", "scale": "quick", "seed": 7}
            status, first = _post(url, body, timeout=600)
            assert status == 200 and first["state"] == "done"
            expected = run_target("fork", SCALES["quick"],
                                  RunContext(Orchestrator()))
            assert first["report"] == expected
            # The raw report endpoint serves the CLI's exact bytes.
            status, raw, _ = _get(f"{url}/runs/{first['id']}/report")
            assert raw.decode("utf-8") == expected
            # A repeat is served from the shared cache, byte-identical.
            status, second = _post(url, body, timeout=600)
            assert second["cached"] and second["report"] == expected
        finally:
            app.drain(timeout=60)
            server.shutdown()
            server.server_close()


@pytest.mark.slow
class TestHeldRecordsStayIntact:
    def test_warm_runs_of_every_target_match_the_cold_run(self, tmp_path):
        """Renders read held records in place: each warm report must
        equal the cold one, and each held record its file."""
        cache = ResultCache(str(tmp_path / "cache"))
        app = ServeApp(cache=cache, workers=1)
        app.start()
        runs = {target: [] for target in SERVE_TARGETS}
        try:
            for _ in range(3):  # Cold, from disk, from memory.
                for target in SERVE_TARGETS:
                    record, _ = app.submit(RunRequest(target=target))
                    assert app.registry.wait_finished(record, timeout=300)
                    assert record.state == "done", record.error
                    runs[target].append(
                        (record.report, record.hits, record.misses))
        finally:
            app.drain(timeout=60)
        for target, ((cold, hits, misses), *warm) in runs.items():
            assert hits == 0 and misses > 0, target
            assert warm == [(cold, misses, 0)] * 2, target
        held = cache._held._entries
        assert len(held) == 18
        for digest, record in held.items():
            with open(cache.path(digest), encoding="utf-8") as handle:
                assert record == json.load(handle), digest


class TestWorkerPoolIntegration:
    """The serve <-> distrib seam: "jobs" runs + the fallback counter."""

    def test_new_specs_are_declared_and_exposed(self):
        from repro.serve.metrics import SERVE_METRIC_SPECS, ServerMetrics

        by_name = {spec.name: spec.kind for spec in SERVE_METRIC_SPECS}
        assert by_name["satr_executor_fallbacks_total"] == "counter"
        metrics = ServerMetrics()
        metrics.executor_fallbacks(2)
        metrics.executor_fallbacks()
        exposition = metrics.exposition()
        assert "satr_executor_fallbacks_total 3" in exposition

    def test_multi_job_run_matches_single_job(self):
        """A run with "jobs": 2 executes on two local warm workers (no
        cell runs in the server process) and returns the same report
        bytes as a "jobs": 1 run, with no fallback."""
        del _EXECUTIONS[:]
        reports, fallbacks, in_server = {}, {}, {}
        for jobs in (2, 1):
            app = ServeApp(cache=None, workers=1,
                           targets={"fork": _multi_planner(4)})
            app.start()
            record, _ = app.submit(RunRequest(target="fork", scale="quick",
                                              seed=3, jobs=jobs))
            app.registry.wait_finished(record)
            assert record.state == "done", record.error
            reports[jobs] = record.report
            fallbacks[jobs] = app.metrics.snapshot()[
                "satr_executor_fallbacks_total"]
            in_server[jobs] = len(_EXECUTIONS)
            del _EXECUTIONS[:]
            app.drain(timeout=10)
        assert reports[2] == reports[1]
        assert fallbacks == {2: 0, 1: 0}
        assert in_server == {2: 0, 1: 4}

    def test_dead_pool_counts_fallbacks_and_still_serves(self,
                                                         monkeypatch):
        """A "jobs": 2 run whose workers cannot start degrades to
        in-process execution and the fallback counter records it."""
        from repro.distrib import local

        monkeypatch.setattr(local, "worker_command",
                            lambda: [sys.executable, "-c", "pass"])
        app = ServeApp(cache=None, workers=1, targets=dict(FAKE_TARGETS))
        app.start()
        record, _ = app.submit(RunRequest(target="fork", scale="quick",
                                          seed=5, jobs=2))
        app.registry.wait_finished(record)
        assert record.state == "done", record.error
        assert app.metrics.snapshot()[
            "satr_executor_fallbacks_total"] == 1
        app.drain(timeout=10)
