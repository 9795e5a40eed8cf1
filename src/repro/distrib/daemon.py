"""``satr workers`` — the warm-worker pool daemon.

The daemon owns a :class:`~repro.distrib.pool.WorkerPool` and a
listening socket (unix by default, TCP for multi-host pools).  Each
accepted connection gets a reader thread that translates client frames
into pool submissions; replies are written back under a per-connection
lock, so many in-flight cells can answer out of order while each
frame stays intact.

Client-facing frames:

- ``hello``  → answered with the daemon's hello (version, workers,
  protocol) — the handshake a client uses to validate compatibility.
- ``run``    → ``{id, cell, timeout?}``; answered eventually with a
  ``result`` or ``error`` frame carrying the same ``id``.
- ``ping``   → ``pong`` immediately (heartbeats bypass the queue, so a
  busy pool still proves liveness).
- ``stats``  → a snapshot of the pool counters and gauges.

SIGTERM/SIGINT drain: stop accepting, finish queued cells, stop the
workers, exit 0 — mirroring ``satr serve``'s drain discipline.
"""

import os
import signal
import socket
import sys
import threading
import time
from typing import Any, BinaryIO, Dict, Optional

from repro import __version__
from repro.distrib import protocol
from repro.distrib.pool import WorkerPool
from repro.distrib.protocol import ProtocolError, read_frame, write_frame

#: Default unix-socket path when neither --address nor $SATR_WORKERS
#: names one; per-user tmp keeps pools from colliding across users.
DEFAULT_SOCKET = os.path.join(
    "/tmp", f"satr-workers-{os.getuid()}" if hasattr(os, "getuid")
    else "satr-workers", "pool.sock")


class WorkersDaemon:
    """Accept loop + per-client reader threads over one WorkerPool."""

    def __init__(self, address: str, workers: int,
                 cell_timeout: Optional[float] = None,
                 quiet: bool = False) -> None:
        self.address = address
        self.quiet = quiet
        self.pool = WorkerPool(workers, cell_timeout=cell_timeout,
                               log=self.log)
        self.listener = protocol.bind(address)
        # drain() shuts the listener down, which wakes a blocked accept
        # on Linux (closing it from another thread does not); the
        # timeout is the backstop where shutdown does not wake it.  It
        # is set here, not in serve_forever, because a drain can close
        # the listener before the serving thread first runs.
        self.listener.settimeout(0.5)
        self.bound = protocol.bound_address(self.listener)
        self._draining = threading.Event()
        self._clients: Dict[int, socket.socket] = {}
        self._clients_lock = threading.Lock()
        self._client_seq = 0
        self.started = time.time()

    def log(self, line: str) -> None:
        if not self.quiet:
            print(f"[satr workers] {line}", file=sys.stderr, flush=True)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self.pool.start()
        self.log(f"listening on {self.bound} with "
                 f"{self.pool.workers_alive()}/{self.pool.size} workers "
                 f"(pids {self.pool.pids()})")

    def serve_forever(self) -> None:
        """Accept until drain; returns after the pool has emptied."""
        try:
            while not self._draining.is_set():
                try:
                    conn, _ = self.listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # The listener was closed by drain().
                with self._clients_lock:
                    self._client_seq += 1
                    cid = self._client_seq
                    self._clients[cid] = conn
                threading.Thread(target=self._client_loop,
                                 args=(cid, conn),
                                 name=f"satr-workers-client-{cid}",
                                 daemon=True).start()
        finally:
            self.pool.shutdown()
        self.log("drained; all workers stopped")

    def drain(self) -> None:
        """Stop accepting; serve_forever finishes queued work and exits."""
        self._draining.set()
        for closer in (lambda: self.listener.shutdown(socket.SHUT_RDWR),
                       self.listener.close):
            try:
                closer()
            except OSError:
                pass
        if self.bound.startswith("unix:"):
            try:
                os.unlink(self.bound[len("unix:"):])
            except OSError:
                pass

    # -- one client -----------------------------------------------------

    def _client_loop(self, cid: int, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        # Set when this connection ends, so the pool skips the cells
        # it queued and no worker runs them for nobody.
        gone = threading.Event()
        stream_in = conn.makefile("rb")
        stream_out = conn.makefile("wb")

        def reply(frame: Dict[str, Any]) -> None:
            with write_lock:
                write_frame(stream_out, frame)

        try:
            while True:
                try:
                    frame = read_frame(stream_in)
                except (ProtocolError, OSError):
                    break
                if frame is None:
                    break
                if not self._handle(cid, frame, reply, gone):
                    break
        finally:
            gone.set()
            with self._clients_lock:
                self._clients.pop(cid, None)
            for stream in (stream_out, stream_in):
                try:
                    stream.close()
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, cid: int, frame: Any, reply: Any,
                gone: threading.Event) -> bool:
        """Dispatch one client frame; False ends the connection."""
        kind = frame.get("type") if isinstance(frame, dict) else None
        try:
            if kind == "hello":
                reply({"type": "hello", "version": __version__,
                       "protocol": protocol.PROTOCOL_VERSION,
                       "workers": self.pool.size,
                       "workers_alive": self.pool.workers_alive()})
                return True
            if kind == "ping":
                reply({"type": "pong"})
                return True
            if kind == "stats":
                stats = self.pool.stats()
                stats.update({"type": "stats",
                              "uptime_seconds": time.time() - self.started,
                              "address": self.bound})
                reply(stats)
                return True
            if kind == "run":
                if self._draining.is_set():
                    reply({"type": "error", "id": frame.get("id"),
                           "kind": "unavailable",
                           "error": "pool is draining"})
                    return True
                try:
                    self.pool.submit(frame["cell"], frame.get("id"),
                                     reply, timeout=frame.get("timeout"),
                                     gone=gone)
                except RuntimeError:
                    reply({"type": "error", "id": frame.get("id"),
                           "kind": "unavailable",
                           "error": "pool is draining"})
                except (KeyError, TypeError) as exc:
                    reply({"type": "error", "id": frame.get("id"),
                           "kind": "protocol",
                           "error": f"malformed run frame: {exc}"})
                return True
            reply({"type": "error", "id": frame.get("id")
                   if isinstance(frame, dict) else None,
                   "kind": "protocol",
                   "error": f"unknown frame type {kind!r}"})
            return True
        except OSError:
            return False  # The client hung up mid-reply.


def run_daemon(address: str, workers: int,
               cell_timeout: Optional[float] = None,
               quiet: bool = False,
               address_file: Optional[str] = None) -> int:
    """Run one daemon until SIGTERM/SIGINT; the blocking entry point."""
    daemon = WorkersDaemon(address, workers, cell_timeout=cell_timeout,
                           quiet=quiet)
    daemon.start()
    if address_file:
        tmp = address_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(daemon.bound + "\n")
        os.replace(tmp, address_file)

    def on_signal(signum: int, frame: Any) -> None:
        daemon.log(f"signal {signum}; draining")
        daemon.drain()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        daemon.serve_forever()
    finally:
        daemon.drain()
    return 0
