"""The warm workers: frames, the pipe-driven executor, its fallbacks.

The load-bearing guarantee is the byte-identity contract every
executor carries: a cell list run on ``local_workers(2)`` (crashes and
all) produces the same payload bytes a serial run produces.
"""

import io
import os
import signal
import socket
import threading
import time

import pytest

from repro.distrib import (
    ProtocolError,
    local_workers,
    read_frame,
    write_frame,
)
from repro.distrib import local
from repro.orchestrate import Orchestrator, Telemetry, canonical_json
from repro.orchestrate.cells import Cell
from repro.orchestrate.executor import run_serial

# A test thread that dies fails its test.
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
    respawned worker's second attempt is what produces the result.
    """
    sentinel = params["sentinel"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed\n")
        os._exit(17)
    return {"value": params["value"], "recovered": True}


def worker_killing_cell(params):
    """Kill every worker that runs it; succeed in the ``host`` process."""
    if os.getpid() != params["host"]:
        os._exit(17)
    return {"value": params["value"], "host": True}


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


def _same_bytes(runs, items):
    return ([canonical_json(run[1]) for run in _in_order(runs)]
            == [canonical_json(run[1]) for run in run_serial(items)])


@pytest.fixture()
def spawned(tmp_path, monkeypatch):
    """Every worker the executor spawns; temp files land in tmp_path."""
    import tempfile

    workers = []
    original = local.Worker.__init__

    def tracked(worker):
        original(worker)
        workers.append(worker)

    monkeypatch.setattr(local.Worker, "__init__", tracked)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return workers


# ---------------------------------------------------------------------------
# Protocol units (no worker needed).
# ---------------------------------------------------------------------------

class TestFrames:
    def test_round_trip(self, tmp_path):
        buffer = io.BytesIO()
        write_frame(buffer, {"type": "run", "id": 3, "cell": {"b": 1}})
        write_frame(buffer, {"type": "hello"})
        buffer.seek(0)
        assert read_frame(buffer) == {"type": "run", "id": 3,
                                      "cell": {"b": 1}}
        assert read_frame(buffer) == {"type": "hello"}
        assert read_frame(buffer) is None  # Clean EOF.

    def test_frames_are_canonical_json(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"z": 1, "a": 2})
        raw = buffer.getvalue()[4:]
        assert raw == canonical_json({"z": 1, "a": 2}).encode("utf-8")
        assert raw == b'{"a":2,"z":1}'

    def test_eof_inside_frame_is_an_error(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"type": "hello"})
        truncated = io.BytesIO(buffer.getvalue()[:-3])
        with pytest.raises(ProtocolError):
            read_frame(truncated)

    def test_eof_inside_header_is_an_error(self):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_garbage_body_is_an_error(self):
        import struct

        body = b"not json at all"
        stream = io.BytesIO(struct.pack("!I", len(body)) + body)
        with pytest.raises(ProtocolError):
            read_frame(stream)


class TestClientReads:
    """The parent's reads of worker frames off a raw pipe."""

    def test_frames_sent_a_byte_at_a_time_decode(self):
        frames = [{"type": "hello", "pid": 1},
                  {"type": "result", "id": 0, "payload": {"from": "pipe"},
                   "elapsed": 0.5}]
        buffer = io.BytesIO()
        for frame in frames:
            write_frame(buffer, frame)
        read_end, write_end = os.pipe()

        def trickle():
            with os.fdopen(write_end, "wb", buffering=0) as out:
                for byte in buffer.getvalue():
                    out.write(bytes([byte]))
                    time.sleep(0.001)

        writer = threading.Thread(target=trickle)
        writer.start()
        with os.fdopen(read_end, "rb", buffering=0) as inp:
            decoded = [read_frame(inp), read_frame(inp), read_frame(inp)]
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert decoded == frames + [None]


# ---------------------------------------------------------------------------
# local_workers(2): the executor over live worker processes.
# ---------------------------------------------------------------------------

class TestDistribExecutor:
    def test_handshake_and_liveness(self, spawned):
        """Workers greet on start, stay up across batches, and exit
        cleanly (status 0) at the end of their stdin."""
        fallbacks = []
        with local_workers(2) as executor:
            for _ in range(2):
                assert _same_bytes(
                    executor.run_iter(_echo_items(3), fallbacks.append),
                    _echo_items(3))
            assert len(spawned) == 2
            assert all(worker.proc.poll() is None for worker in spawned)
        assert fallbacks == []
        assert [worker.proc.returncode for worker in spawned] == [0, 0]

    def test_run_matches_serial_byte_for_byte(self):
        items = _echo_items(6)
        with local_workers(2) as executor:
            runs = list(executor.run_iter(items))
        serial = run_serial(items)
        assert [run[0] for run in _in_order(runs)] == [
            run[0] for run in serial]
        assert _same_bytes(runs, items)

    def test_run_iter_completes_every_cell(self):
        """Every cell is answered, in completion order: the slow cell
        on one worker lands after the quick ones the other ran."""
        items = _items([_cell("sleepy_cell", "slow", seconds=1.0)]
                       + [_cell("echo_cell", f"v{v}", value=v)
                          for v in range(1, 5)])
        with local_workers(2) as executor:
            runs = list(executor.run_iter(items))
        assert sorted(run[0] for run in runs) == list(range(5))
        assert runs[-1][0] == 0
        by_index = {run[0]: run[1] for run in runs}
        assert by_index[3] == {"value": 3, "squared": 9}

    def test_exception_propagates_like_serial(self):
        fallbacks = []
        items = _items([_cell("failing_cell", "boom", value=7)])
        with local_workers(2) as executor:
            with pytest.raises(ValueError,
                               match="deliberate failure for 7"):
                list(executor.run_iter(items, fallbacks.append))
        assert len(fallbacks) == 1 and "exception" in fallbacks[0]

    def test_crash_retries_on_another_worker(self, spawned, tmp_path):
        """A worker that dies mid-cell is respawned and the cell runs
        once more on the new process, with no fallback."""
        sentinel = str(tmp_path / "crash-once")
        items = _items(
            [_cell("echo_cell", f"v{v}", value=v) for v in range(3)]
            + [_cell("crash_once_cell", "crasher", value=99,
                     sentinel=sentinel)])
        fallbacks = []
        with local_workers(2) as executor:
            runs = _in_order(executor.run_iter(items, fallbacks.append))
        assert runs[3][1] == {"value": 99, "recovered": True}
        assert [run[1]["value"] for run in runs[:3]] == [0, 1, 2]
        assert fallbacks == []
        assert len(spawned) == 3  # Two, then one respawn.

    def test_second_death_runs_the_cell_in_process(self, spawned):
        """A cell whose retry kills its worker too runs here, announced;
        the pool is back to full size for the rest of the batch."""
        items = _items([_cell("worker_killing_cell", "killer", value=5,
                              host=os.getpid())]
                       + [_cell("echo_cell", f"v{v}", value=v)
                          for v in range(1, 4)])
        fallbacks = []
        with local_workers(2) as executor:
            runs = list(executor.run_iter(items, fallbacks.append))
            assert sum(worker.proc.poll() is None
                       for worker in spawned) == 2
        assert _same_bytes(runs, items)
        assert len(fallbacks) == 1 and "twice" in fallbacks[0]
        assert len(spawned) == 4  # Two, then one respawn per death.

    def test_killing_a_worker_mid_run_still_completes(self, spawned):
        fallbacks = []
        with local_workers(2) as executor:
            list(executor.run_iter(_echo_items(2)))  # Start the workers.
            victim = spawned[0].proc.pid
            items = _items([_cell("sleepy_cell", f"s{n}", seconds=0.3)
                            for n in range(4)])

            def assassinate():
                time.sleep(0.15)  # Mid-first-round: two cells in flight.
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=assassinate)
            killer.start()
            runs = list(executor.run_iter(items, fallbacks.append))
            killer.join(timeout=30)
        assert sorted(run[0] for run in runs) == list(range(4))
        assert all(run[1] == {"slept": 0.3} for run in runs)
        assert fallbacks == []
        assert len(spawned) == 3

    def test_unreachable_pool_falls_back_to_serial(self, tmp_path,
                                                   monkeypatch):
        """Workers that cannot even be spawned: the batch runs here,
        announced once."""
        monkeypatch.setattr(local, "worker_command",
                            lambda: [str(tmp_path / "no-such-python")])
        fallbacks = []
        items = _echo_items(3)
        with local_workers(2) as executor:
            runs = list(executor.run_iter(items, fallbacks.append))
        assert _same_bytes(runs, items)
        assert len(fallbacks) == 1 and "unavailable" in fallbacks[0]

    def test_orchestrator_with_distrib_executor(self):
        cells = [_cell("echo_cell", f"v{v}", value=v) for v in range(4)]
        telemetry = Telemetry()
        with local_workers(2) as executor:
            distrib = Orchestrator(executor=executor,
                                   telemetry=telemetry).run(cells)
        serial = Orchestrator().run(cells)
        assert ([canonical_json(p) for p in distrib]
                == [canonical_json(p) for p in serial])
        assert telemetry.fallbacks == []
        assert telemetry.misses == 4

    def test_runs_without_any_socket(self, monkeypatch):
        """The workers answer over their pipes: with no socket to be
        had, a run still matches serial and falls back nowhere."""
        def no_sockets(*args, **kwargs):
            raise OSError("sockets are disabled in this test")

        monkeypatch.setattr(socket, "socket", no_sockets)
        items = _echo_items(4)
        fallbacks = []
        with local_workers(2) as executor:
            runs = list(executor.run_iter(items, fallbacks.append))
        assert _same_bytes(runs, items)
        assert fallbacks == []

    def test_abandoned_batch_is_drained(self, spawned, tmp_path):
        """A batch dropped after its first result runs no unsent cell,
        and the answers still in flight are read before the next batch,
        so none is taken for a later cell's."""
        markers = tmp_path / "markers"
        markers.mkdir()
        items = _items([_cell("marked_sleepy_cell", f"s{n}", seconds=0.3,
                              marker=str(markers / f"s{n}"))
                        for n in range(6)])
        fallbacks = []
        with local_workers(2) as executor:
            batch = executor.run_iter(items, fallbacks.append)
            next(batch)
            batch.close()
            # The first two cells, plus the one fed to the worker that
            # answered first before its result was handed over.
            assert len(os.listdir(markers)) == 3
            later = _echo_items(4)
            assert _same_bytes(executor.run_iter(later, fallbacks.append),
                               later)
        assert fallbacks == []
        assert len(spawned) == 2  # No answer was out of turn.


class TestLocalWorkers:
    """``--jobs N``: workers private to a command, stopped on exit."""

    def test_matches_serial_and_cleans_up(self, spawned, tmp_path):
        items = _echo_items(6)
        fallbacks = []
        with local_workers(2) as executor:
            runs = list(executor.run_iter(items, fallbacks.append))
        assert _same_bytes(runs, items)
        assert fallbacks == []
        assert len(spawned) == 2
        assert all(worker.proc.poll() is not None for worker in spawned)
        assert os.listdir(tmp_path) == []

    def test_no_worker_outlives_a_raising_cell(self, spawned, tmp_path):
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
        # Only the cells already on a worker ran; the unsent rest were
        # dropped instead of holding the exit up.
        assert len(os.listdir(markers)) <= 2
        assert len(spawned) == 2
        assert all(worker.proc.poll() is not None for worker in spawned)
        assert os.listdir(tmp_path) == ["markers"]

    def test_nothing_starts_without_cells_to_run(self, spawned, tmp_path,
                                                 monkeypatch, capsys):
        """Workers start with the first batch that has misses: empty
        blocks and a fully cached ``--jobs 2`` command start none."""
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

