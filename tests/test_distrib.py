"""The warm-worker pool: protocol, daemon, client, fallback ladder.

The load-bearing guarantee is the same byte-identity contract the
other executors carry: a cell list run through ``DistribExecutor``
(2+ warm workers, crashes and all) produces the same payload bytes a
serial run produces.
"""

import os
import signal
import socket
import threading
import time

import pytest

from repro.distrib import (
    DistribExecutor,
    PROTOCOL_VERSION,
    ProtocolError,
    WorkersDaemon,
    fetch_pool_stats,
    parse_address,
    pool_alive,
    read_frame,
    write_frame,
)
from repro.orchestrate import Orchestrator, Telemetry, canonical_json
from repro.orchestrate.cells import Cell
from repro.orchestrate.executor import run_serial

# A daemon, dispatcher or serving thread that dies fails its test.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")


# ---------------------------------------------------------------------------
# Cell functions (module-level so warm workers can import them).
# ---------------------------------------------------------------------------

def echo_cell(params):
    return {"value": params["value"], "squared": params["value"] ** 2}


def failing_cell(params):
    raise ValueError(f"deliberate failure for {params['value']}")


def crash_once_cell(params):
    """Kill the hosting worker the first time, succeed the second.

    The sentinel file makes the crash happen exactly once, so the
    daemon's requeue-on-another-worker retry is what produces the
    eventual result.
    """
    sentinel = params["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed\n")
        os._exit(17)
    return {"value": params["value"], "recovered": True}


def sleepy_cell(params):
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


def marked_sleepy_cell(params):
    """A sleepy cell that leaves a file behind once it has started."""
    with open(params["marker"], "w"):
        pass
    return sleepy_cell(params)


def _cell(fn, cell_id, **params):
    return Cell(experiment="distrib-test", cell_id=cell_id,
                fn=f"tests.test_distrib:{fn}", params=params)


def _items(cells):
    return [(index, cell.to_dict()) for index, cell in enumerate(cells)]


def _echo_items(count):
    return _items([_cell("echo_cell", f"v{v}", value=v)
                   for v in range(count)])


def _in_order(runs):
    """Completion-order ``(index, payload, elapsed)`` runs, by index."""
    return sorted(runs, key=lambda run: run[0])


# ---------------------------------------------------------------------------
# Protocol units (no daemon needed).
# ---------------------------------------------------------------------------

class TestFrames:
    def test_round_trip(self, tmp_path):
        import io

        buffer = io.BytesIO()
        write_frame(buffer, {"type": "run", "id": 3, "cell": {"b": 1}})
        write_frame(buffer, {"type": "ping"})
        buffer.seek(0)
        assert read_frame(buffer) == {"type": "run", "id": 3,
                                      "cell": {"b": 1}}
        assert read_frame(buffer) == {"type": "ping"}
        assert read_frame(buffer) is None  # Clean EOF.

    def test_frames_are_canonical_json(self):
        import io

        buffer = io.BytesIO()
        write_frame(buffer, {"z": 1, "a": 2})
        raw = buffer.getvalue()[4:]
        assert raw == canonical_json({"z": 1, "a": 2}).encode("utf-8")
        assert raw == b'{"a":2,"z":1}'

    def test_eof_inside_frame_is_an_error(self):
        import io

        buffer = io.BytesIO()
        write_frame(buffer, {"type": "hello"})
        truncated = io.BytesIO(buffer.getvalue()[:-3])
        with pytest.raises(ProtocolError):
            read_frame(truncated)

    def test_eof_inside_header_is_an_error(self):
        import io

        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_garbage_body_is_an_error(self):
        import io
        import struct

        body = b"not json at all"
        stream = io.BytesIO(struct.pack("!I", len(body)) + body)
        with pytest.raises(ProtocolError):
            read_frame(stream)


class TestAddresses:
    def test_unix_forms(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("./pool.sock") == ("unix", "./pool.sock")

    def test_tcp_forms(self):
        assert parse_address("tcp:127.0.0.1:9001") == (
            "tcp", ("127.0.0.1", 9001))
        assert parse_address("localhost:9001") == ("tcp", ("localhost", 9001))

    def test_rejections(self):
        for bad in ("", "tcp:no-port", "tcp:host:notaport",
                    "tcp:host:70000", "justaname"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# A live 2-worker daemon shared by the integration tests.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("distrib") / "pool.sock")
    worker_daemon = WorkersDaemon(f"unix:{path}", workers=2, quiet=True)
    worker_daemon.start()
    thread = threading.Thread(target=worker_daemon.serve_forever,
                              daemon=True)
    thread.start()
    yield worker_daemon
    worker_daemon.drain()
    thread.join(timeout=30)
    assert not thread.is_alive(), "daemon did not drain"


@pytest.fixture()
def executor(daemon):
    return DistribExecutor(daemon.bound)


class TestDistribExecutor:
    def test_handshake_and_liveness(self, daemon):
        assert pool_alive(daemon.bound)
        assert not pool_alive("unix:/nonexistent/satr-test.sock")
        assert not pool_alive(None)

    def test_stats_frame(self, daemon):
        stats = fetch_pool_stats(daemon.bound)
        assert stats["type"] == "stats"
        assert stats["workers"] == 2
        assert stats["workers_alive"] == 2
        assert stats["address"] == daemon.bound
        assert stats["uptime_seconds"] >= 0

    def test_run_matches_serial_byte_for_byte(self, executor):
        items = _echo_items(6)
        serial = run_serial(items)
        distrib = _in_order(executor.run_iter(items))
        assert [run[0] for run in distrib] == [run[0] for run in serial]
        assert ([canonical_json(run[1]) for run in distrib]
                == [canonical_json(run[1]) for run in serial])

    def test_run_iter_completes_every_cell(self, executor):
        items = _echo_items(5)
        runs = list(executor.run_iter(items))
        assert sorted(run[0] for run in runs) == list(range(5))
        by_index = {run[0]: run[1] for run in runs}
        assert by_index[3] == {"value": 3, "squared": 9}

    def test_exception_propagates_like_serial(self, executor):
        fallbacks = []
        items = _items([_cell("failing_cell", "boom", value=7)])
        with pytest.raises(ValueError, match="deliberate failure for 7"):
            list(executor.run_iter(items, fallbacks.append))
        assert len(fallbacks) == 1 and "exception" in fallbacks[0]

    def test_crash_retries_on_another_worker(self, daemon, executor,
                                             tmp_path):
        sentinel = str(tmp_path / "crash-once")
        crashes_before = daemon.pool.counters["crashes_total"]
        items = _items(
            [_cell("echo_cell", f"v{v}", value=v) for v in range(3)]
            + [_cell("crash_once_cell", "crasher", value=99,
                     sentinel=sentinel)])
        fallbacks = []
        runs = _in_order(executor.run_iter(items, fallbacks.append))
        assert runs[3][1] == {"value": 99, "recovered": True}
        assert [run[1]["value"] for run in runs[:3]] == [0, 1, 2]
        # The daemon (not the client) absorbed the crash: one worker
        # died, the cell was requeued, no client-side fallback fired.
        assert daemon.pool.counters["crashes_total"] == crashes_before + 1
        assert fallbacks == []
        self._wait_for_workers(daemon, 2)

    def test_killing_a_worker_mid_run_still_completes(self, daemon,
                                                      executor):
        self._wait_for_workers(daemon, 2)
        items = _items([_cell("sleepy_cell", f"s{n}", seconds=0.3)
                        for n in range(4)])
        victim = daemon.pool.pids()[0]

        def assassinate():
            time.sleep(0.15)  # Mid-first-round: two cells in flight.
            os.kill(victim, signal.SIGKILL)

        killer = threading.Thread(target=assassinate)
        killer.start()
        runs = list(executor.run_iter(items))
        killer.join()
        assert sorted(run[0] for run in runs) == list(range(4))
        assert all(run[1] == {"slept": 0.3} for run in runs)
        self._wait_for_workers(daemon, 2)

    def test_unreachable_pool_falls_back_to_serial(self, tmp_path):
        executor = DistribExecutor(
            f"unix:{tmp_path}/nobody-home.sock", connect_timeout=1.0)
        fallbacks = []
        items = _echo_items(3)
        runs = _in_order(executor.run_iter(items, fallbacks.append))
        assert ([canonical_json(run[1]) for run in runs]
                == [canonical_json(run[1]) for run in run_serial(items)])
        assert len(fallbacks) == 1 and "unreachable" in fallbacks[0]

    def test_cell_timeout_kills_worker_and_falls_back(self, daemon):
        executor = DistribExecutor(daemon.bound, cell_timeout=0.2)
        timeouts_before = daemon.pool.counters["timeouts_total"]
        fallbacks = []
        items = _items([_cell("sleepy_cell", "slow", seconds=1.0)])
        runs = list(executor.run_iter(items, fallbacks.append))
        assert runs[0][1] == {"slept": 1.0}  # In-process fallback ran it.
        assert daemon.pool.counters["timeouts_total"] == timeouts_before + 1
        assert len(fallbacks) == 1 and "timeout" in fallbacks[0]
        self._wait_for_workers(daemon, 2)

    def test_orchestrator_with_distrib_executor(self, daemon):
        cells = [_cell("echo_cell", f"v{v}", value=v) for v in range(4)]
        telemetry = Telemetry()
        distrib = Orchestrator(executor=DistribExecutor(daemon.bound),
                               telemetry=telemetry).run(cells)
        serial = Orchestrator().run(cells)
        assert ([canonical_json(p) for p in distrib]
                == [canonical_json(p) for p in serial])
        assert telemetry.fallbacks == []
        assert telemetry.misses == 4

    @staticmethod
    def _wait_for_workers(daemon, count, timeout=30.0):
        """Wait for crash/timeout respawns so later tests see full size."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            if daemon.pool.workers_alive() >= count:
                return
            time.sleep(0.05)
        raise AssertionError(
            f"pool never recovered to {count} workers")


class TestDaemonLifecycle:
    def test_drain_unlinks_socket_and_stops(self, tmp_path):
        path = str(tmp_path / "drain.sock")
        worker_daemon = WorkersDaemon(f"unix:{path}", workers=1,
                                      quiet=True)
        worker_daemon.start()
        thread = threading.Thread(target=worker_daemon.serve_forever,
                                  daemon=True)
        thread.start()
        assert pool_alive(worker_daemon.bound)
        worker_daemon.drain()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert not os.path.exists(path)
        assert worker_daemon.pool.workers_alive() == 0

    def test_stale_socket_file_is_rebound(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        # A socket file with no listener behind it (a crashed daemon).
        orphan = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        orphan.bind(path)
        orphan.close()
        worker_daemon = WorkersDaemon(f"unix:{path}", workers=1,
                                      quiet=True)
        try:
            assert worker_daemon.bound == f"unix:{path}"
        finally:
            # Workers were never started; just release the listener.
            worker_daemon.drain()

    def test_live_socket_refuses_second_daemon(self, daemon):
        with pytest.raises(OSError, match="already listening"):
            WorkersDaemon(daemon.bound, workers=1, quiet=True)

    def test_drain_before_serving_still_stops_the_pool(self, tmp_path):
        """A drain that lands before the serving thread first runs (a
        private pool closed at once) still stops every worker."""
        worker_daemon = WorkersDaemon(f"unix:{tmp_path}/early.sock",
                                      workers=1, quiet=True)
        worker_daemon.start()
        worker_daemon.drain()
        thread = threading.Thread(target=worker_daemon.serve_forever,
                                  daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert worker_daemon.pool.workers_alive() == 0

    def test_departed_client_cells_are_dropped(self, tmp_path):
        """Cells a client queued and hung up on are skipped, so they do
        not keep the pool from its other clients."""
        path = str(tmp_path / "gone.sock")
        worker_daemon = WorkersDaemon(f"unix:{path}", workers=1, quiet=True)
        worker_daemon.start()
        thread = threading.Thread(target=worker_daemon.serve_forever,
                                  daemon=True)
        thread.start()
        markers = tmp_path / "markers"
        markers.mkdir()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(path)
            with sock, sock.makefile("rb") as inp, \
                    sock.makefile("wb") as out:
                write_frame(out, {"type": "hello",
                                  "protocol": PROTOCOL_VERSION})
                read_frame(inp)
                for n in range(5):
                    cell = _cell("marked_sleepy_cell", f"s{n}", seconds=1.0,
                                 marker=str(markers / f"s{n}"))
                    write_frame(out, {"type": "run", "id": n,
                                      "cell": cell.to_dict()})
                deadline = time.monotonic() + 30
                while not os.listdir(markers):
                    assert time.monotonic() < deadline, "no cell started"
                    time.sleep(0.01)
            hung_up = time.monotonic()
            pool = worker_daemon.pool
            while pool.queue_depth() or pool.busy():
                assert time.monotonic() - hung_up < 3.0, \
                    "a departed client's cells kept running"
                time.sleep(0.05)
            assert len(os.listdir(markers)) <= 2
        finally:
            worker_daemon.drain()
            thread.join(timeout=30)
        assert not thread.is_alive()


class TestLocalWorkers:
    """``--jobs N``: a private daemon per command, cleaned up on exit."""

    @pytest.fixture()
    def spawned(self, tmp_path, monkeypatch):
        """Every worker handle the pool spawns; temp dirs in tmp_path."""
        import tempfile

        from repro.distrib import pool

        handles = []
        original = pool.WorkerHandle.__init__

        def tracked(handle):
            original(handle)
            handles.append(handle)

        monkeypatch.setattr(pool.WorkerHandle, "__init__", tracked)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return handles

    def test_matches_serial_and_cleans_up(self, spawned, tmp_path):
        from repro.distrib import local_workers

        items = _echo_items(6)
        fallbacks = []
        with local_workers(2) as executor:
            runs = _in_order(executor.run_iter(items, fallbacks.append))
            # The private socket directory, made by the first batch.
            assert len(os.listdir(tmp_path)) == 1
        assert ([canonical_json(run[1]) for run in runs]
                == [canonical_json(run[1]) for run in run_serial(items)])
        assert fallbacks == []
        assert len(spawned) == 2
        assert all(handle.proc.poll() is not None for handle in spawned)
        assert os.listdir(tmp_path) == []

    def test_no_worker_outlives_a_raising_cell(self, spawned, tmp_path):
        from repro.distrib import local_workers

        markers = tmp_path / "markers"
        markers.mkdir()
        items = _items([_cell("failing_cell", "boom", value=1)]
                       + [_cell("marked_sleepy_cell", f"s{n}", seconds=1.0,
                                marker=str(markers / f"s{n}"))
                          for n in range(6)])
        fallbacks = []
        with pytest.raises(ValueError, match="deliberate failure for 1"):
            with local_workers(2) as executor:
                list(executor.run_iter(items, fallbacks.append))
        assert len(fallbacks) == 1 and "exception" in fallbacks[0]
        # Only the cells already on a worker ran; the queued rest were
        # dropped instead of holding the exit up.
        assert len(os.listdir(markers)) <= 2
        assert len(spawned) == 2
        assert all(handle.proc.poll() is not None for handle in spawned)
        assert os.listdir(tmp_path) == ["markers"]

    def test_nothing_starts_without_cells_to_run(self, spawned, tmp_path,
                                                 monkeypatch, capsys):
        """Workers start with the first batch that has misses: empty
        blocks and a fully cached ``--jobs 2`` command start none."""
        from repro.distrib import local_workers
        from repro.experiments import runner

        for _ in range(6):
            with local_workers(2):
                pass
        cells = [_cell("echo_cell", f"v{v}", value=v) for v in range(3)]
        monkeypatch.setitem(runner.TARGETS, "echo",
                            lambda scale, seed: runner.TargetPlan(
                                cells, canonical_json))
        argv = ["echo", "--cache-dir", str(tmp_path / "cache")]
        assert runner.main(argv + ["--jobs", "1"]) == 0
        cold = capsys.readouterr().out
        assert runner.main(argv + ["--jobs", "2"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold and ", 0 misses" in warm.err
        assert spawned == []
        assert os.listdir(tmp_path) == ["cache"]
