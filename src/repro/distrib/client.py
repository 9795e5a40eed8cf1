"""``DistribExecutor`` — run cells on a warm-worker pool daemon.

The client speaks the frame protocol over one socket: a ``hello``
handshake, then one ``run`` frame per cell, then replies consumed as
they arrive (out of order — the ``id`` field is the cell's index).
Heartbeats ride the same socket: whenever the daemon has been silent
for one heartbeat interval the client sends a ``ping``; three silent
intervals in a row mean the daemon is gone.

The fallback ladder ("slower but never wrong"):

- daemon unreachable            → every cell runs in-process;
- connection lost mid-run       → the not-yet-answered cells run
                                  in-process;
- ``error kind=crash|timeout``  → that one cell runs in-process (the
  daemon already retried crashes once on another worker);
- ``error kind=exception``      → the cell is re-executed in-process
  so the exception propagates exactly as a serial run would raise it.

Every fallback is announced through the ``on_fallback`` callback so
orchestrator telemetry and the ``satr_executor_fallbacks_total``
counter can see it; without a callback it is a ``RuntimeWarning``.
"""

import json
import socket
from typing import Any, Dict, Iterable, Iterator, Optional

from repro import __version__
from repro.distrib import protocol
from repro.distrib.protocol import ProtocolError, write_frame
from repro.orchestrate.executor import (CellRun, FallbackHook, WorkItem,
                                        _announce_fallback, _run_one)

#: Seconds of daemon silence before the client sends a ping.
DEFAULT_HEARTBEAT_SECONDS = 5.0

#: Silent heartbeat intervals tolerated before declaring the daemon dead.
MISSED_HEARTBEATS = 3

#: Seconds allowed for the initial connect + hello handshake.
DEFAULT_CONNECT_TIMEOUT = 10.0


class _Connection:
    """One framed socket with silence-aware reads.

    Reads go through an owned buffer (``recv`` either delivers bytes
    or times out — nothing is half-consumed), so a heartbeat timeout
    never corrupts frame alignment the way a timeout inside a buffered
    file read would.
    """

    def __init__(self, sock: socket.socket, heartbeat: float) -> None:
        self.sock = sock
        self.out = sock.makefile("wb")
        self.heartbeat = heartbeat
        self._buf = bytearray()
        sock.settimeout(heartbeat)

    def send(self, obj: Dict[str, Any]) -> None:
        write_frame(self.out, obj)

    def recv_frame(self) -> Optional[Any]:
        """The next frame; None on clean EOF.

        Raises :class:`ConnectionError` once the daemon has been
        silent for :data:`MISSED_HEARTBEATS` heartbeat intervals
        despite pings, and :class:`ProtocolError` on garbled bytes.
        """
        header = self._take(protocol._HEADER.size, start_of_frame=True)
        if header is None:
            return None
        (length,) = protocol._HEADER.unpack(header)
        if length > protocol.MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} exceeds the "
                                f"{protocol.MAX_FRAME_BYTES}-byte limit")
        body = self._take(length)
        if body is None:
            raise ProtocolError("connection closed inside a frame")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"frame body is not JSON: {exc}") from None

    def _take(self, count: int,
              start_of_frame: bool = False) -> Optional[bytes]:
        silent_intervals = 0
        while len(self._buf) < count:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                silent_intervals += 1
                if silent_intervals >= MISSED_HEARTBEATS:
                    raise ConnectionError(
                        f"worker pool silent for "
                        f"{silent_intervals * self.heartbeat:.0f}s "
                        f"despite pings") from None
                try:
                    self.send({"type": "ping"})
                except OSError:
                    raise ConnectionError(
                        "worker pool connection broke while "
                        "pinging") from None
                continue
            if not chunk:
                if start_of_frame and not self._buf:
                    return None
                raise ProtocolError("connection closed inside a frame")
            silent_intervals = 0
            self._buf += chunk
        taken = bytes(self._buf[:count])
        del self._buf[:count]
        return taken

    def close(self) -> None:
        for closer in (self.out.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class DistribExecutor:
    """The warm-pool executor: same shape as ``SerialExecutor``.

    ``run_iter`` takes ``(index, cell_dict)`` items and yields
    ``(index, payload, elapsed)`` in **completion order**.
    """

    def __init__(self, address: str,
                 heartbeat: float = DEFAULT_HEARTBEAT_SECONDS,
                 cell_timeout: Optional[float] = None,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT) -> None:
        self.address = address
        self.heartbeat = heartbeat
        self.cell_timeout = cell_timeout
        self.connect_timeout = connect_timeout

    # -- the executor surface -------------------------------------------

    def run_iter(self, items: Iterable[WorkItem],
                 on_fallback: FallbackHook = None) -> Iterator[CellRun]:
        """Cells as they complete."""
        pending: Dict[int, WorkItem] = {item[0]: item for item in items}
        if not pending:
            return
        try:
            conn = self._open()
        except (OSError, ProtocolError, ValueError, ConnectionError) as exc:
            yield from _in_process(
                pending, on_fallback,
                f"worker pool unreachable at {self.address} ({exc})")
            return
        try:
            try:
                for index, cell in pending.values():
                    frame: Dict[str, Any] = {"type": "run", "id": index,
                                             "cell": cell}
                    if self.cell_timeout is not None:
                        frame["timeout"] = self.cell_timeout
                    conn.send(frame)
            except OSError as exc:
                yield from _in_process(
                    pending, on_fallback,
                    f"worker pool connection lost ({exc})")
                return
            while pending:
                try:
                    frame = conn.recv_frame()
                except (ConnectionError, ProtocolError, OSError) as exc:
                    yield from _in_process(
                        pending, on_fallback,
                        f"worker pool connection lost ({exc})")
                    return
                if frame is None:
                    yield from _in_process(
                        pending, on_fallback,
                        "worker pool closed the connection")
                    return
                kind = frame.get("type") if isinstance(frame, dict) else None
                if kind == "pong":
                    continue
                index = frame.get("id") if isinstance(frame, dict) else None
                item = pending.pop(index, None)
                if item is None:
                    continue  # Duplicate or stale id; already answered.
                if kind == "result":
                    yield (item[0], frame["payload"],
                           float(frame.get("elapsed", 0.0)))
                    continue
                # Everything else is an error frame for this cell.
                # kind=exception re-executes too — the exception must
                # propagate from the caller's stack exactly as a serial
                # run's would (and if it does NOT reproduce in-process,
                # the worker environment is broken and the fallback
                # counter is how anyone finds out).
                error_kind = frame.get("kind", "protocol")
                _announce_fallback(
                    on_fallback,
                    f"worker pool failed cell {item[0]} "
                    f"({error_kind}: {frame.get('error')}); running "
                    f"it in-process")
                yield _run_one(item)
        finally:
            conn.close()

    # -- plumbing -------------------------------------------------------

    def _open(self) -> _Connection:
        sock = protocol.connect(self.address,
                                timeout=self.connect_timeout)
        conn = _Connection(sock, self.heartbeat)
        try:
            conn.send({"type": "hello", "version": __version__,
                       "protocol": protocol.PROTOCOL_VERSION})
            hello = conn.recv_frame()
            if (not isinstance(hello, dict)
                    or hello.get("type") != "hello"):
                raise ProtocolError(
                    f"daemon greeted with {hello!r}, expected hello")
            if hello.get("protocol") != protocol.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"daemon speaks protocol {hello.get('protocol')}, "
                    f"this client speaks {protocol.PROTOCOL_VERSION}")
        except BaseException:
            conn.close()
            raise
        return conn


def _in_process(pending: Dict[int, WorkItem], on_fallback: FallbackHook,
                why: str) -> Iterator[CellRun]:
    """Announce once, then run every unanswered cell here, in order."""
    _announce_fallback(on_fallback, f"{why}; running {len(pending)} "
                                    f"remaining cells in-process")
    for index in sorted(pending):
        yield _run_one(pending[index])


def fetch_pool_stats(address: str,
                     timeout: float = DEFAULT_CONNECT_TIMEOUT
                     ) -> Dict[str, Any]:
    """One stats snapshot from a running daemon (raises if unreachable)."""
    sock = protocol.connect(address, timeout=timeout)
    conn = _Connection(sock, heartbeat=timeout)
    try:
        conn.send({"type": "stats"})
        while True:
            frame = conn.recv_frame()
            if frame is None:
                raise ConnectionError("daemon closed before answering stats")
            if isinstance(frame, dict) and frame.get("type") == "stats":
                return frame
    finally:
        conn.close()


def pool_alive(address: Optional[str],
               timeout: float = 2.0) -> bool:
    """True when a daemon answers a ping at ``address``."""
    if not address:
        return False
    try:
        sock = protocol.connect(address, timeout=timeout)
    except (OSError, ValueError):
        return False
    conn = _Connection(sock, heartbeat=timeout)
    try:
        conn.send({"type": "ping"})
        frame = conn.recv_frame()
        return isinstance(frame, dict) and frame.get("type") == "pong"
    except (ConnectionError, ProtocolError, OSError):
        return False
    finally:
        conn.close()
