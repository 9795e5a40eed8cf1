"""The warm-worker pool: spawn once, dispatch cells, survive crashes.

A :class:`WorkerPool` pre-spawns N worker subprocesses (``python -m
repro.distrib.worker``) that import ``repro`` once and then answer
frames over their stdin/stdout pipes.  One dispatcher thread per
worker pulls :class:`Task`\\ s off a shared FIFO queue, so a pool
serves many client connections at once and a slow cell on one worker
never blocks the others.

Failure ladder (per task):

1. **Worker crash mid-cell** (pipe EOF / dead process): the worker is
   respawned and the task re-queued once onto *another* worker
   (``retries_left``); a second crash answers ``error kind=crash`` and
   the client executes the cell in-process.
2. **Cell timeout**: the worker is killed and respawned, the task
   answers ``error kind=timeout`` (no retry — a deterministic cell
   that exceeded the budget once will exceed it again), and the client
   falls back to in-process execution where no budget applies.
3. **Cell exception**: not a failure of the pool at all; the worker
   answers ``error kind=exception`` and the client re-raises by
   re-executing serially.

Every rung degrades toward "run it in-process, slower but never
wrong".
"""

import os
import queue
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import repro
from repro.distrib.protocol import ProtocolError, read_frame, write_frame

#: How long one worker may take to import repro and say hello.
SPAWN_TIMEOUT_SECONDS = 120.0

#: Liveness/deadline poll interval while waiting on a busy worker.
POLL_INTERVAL_SECONDS = 0.05


@dataclass
class Task:
    """One cell execution owed to one client connection."""

    gid: int
    cell: Dict[str, Any]
    timeout: Optional[float]
    reply: Callable[[Dict[str, Any]], None]
    client_id: Any
    retries_left: int = 1
    retried: int = 0
    #: Set once the client connection has closed: nobody would read
    #: the answer, so the dispatcher skips the task.
    gone: Optional[threading.Event] = None


class WorkerStartupError(RuntimeError):
    """A worker process could not be spawned or never said hello."""


def worker_command() -> List[str]:
    """The subprocess argv for one worker."""
    return [sys.executable, "-m", "repro.distrib.worker"]


def worker_env() -> Dict[str, str]:
    """The child environment, with ``repro`` importable.

    If the daemon found the package via a runtime ``sys.path`` edit
    (tests, PYTHONPATH-less invocations), the worker would not, so the
    package location is prepended to ``PYTHONPATH``.
    """
    env = dict(os.environ)
    paths = [os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class WorkerHandle:
    """One worker subprocess and its frame pipes."""

    def __init__(self) -> None:
        # bufsize=0: raw pipes, so select() on the fd sees exactly the
        # bytes a read would — no data hiding in a BufferedReader.
        try:
            self.proc = subprocess.Popen(
                worker_command(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env=worker_env(), bufsize=0)
        except OSError as exc:
            raise WorkerStartupError(
                f"worker could not be spawned: {exc}") from None
        self.out = self.proc.stdin
        self.inp = self.proc.stdout
        try:
            hello = self.read(time.monotonic() + SPAWN_TIMEOUT_SECONDS)
        except (TimeoutError, ProtocolError, OSError) as exc:
            self.kill()
            raise WorkerStartupError(
                f"worker never said hello: {exc}") from None
        if not isinstance(hello, dict) or hello.get("type") != "hello":
            self.kill()
            raise WorkerStartupError(
                f"worker greeted with {hello!r}, expected hello")
        self.pid: int = self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def send(self, obj: Dict[str, Any]) -> None:
        write_frame(self.out, obj)

    def read(self, deadline: Optional[float] = None) -> Optional[Any]:
        """The worker's next frame; None on EOF (crash or exit).

        With a ``deadline`` (monotonic seconds) the wait polls the
        pipe, raising :class:`TimeoutError` when it passes — the cell
        budget enforcement point.
        """
        fd = self.inp.fileno()
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("deadline passed waiting for a frame")
            readable, _, _ = select.select([fd], [], [],
                                           POLL_INTERVAL_SECONDS)
            if readable:
                return read_frame(self.inp)
            if not self.alive():
                # Dead and the pipe is dry: a final read returns the
                # EOF cleanly (any buffered bytes were already drained
                # by select reporting readable above).
                return read_frame(self.inp)

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful: ask the worker to exit, then make sure it did."""
        try:
            self.send({"type": "shutdown"})
            self.out.close()
        except (OSError, ValueError):
            pass
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close_pipes()

    def kill(self) -> None:
        try:
            self.proc.kill()
            self.proc.wait(10.0)
        except OSError:
            pass
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.out, self.inp):
            try:
                pipe.close()
            except OSError:
                pass


class WorkerPool:
    """N dispatcher threads feeding N warm workers from one queue."""

    def __init__(self, size: int, cell_timeout: Optional[float] = None,
                 max_retries: int = 1,
                 log: Optional[Callable[[str], None]] = None) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.log = log or (lambda line: None)
        self._tasks: "queue.Queue[Optional[Task]]" = queue.Queue()
        self._lock = threading.Lock()
        self._gid = 0
        self._busy = 0
        self._draining = False
        self._handles: List[Optional[WorkerHandle]] = [None] * size
        self._ready = [threading.Event() for _ in range(size)]
        self._threads = [
            threading.Thread(target=self._loop, args=(slot,),
                             name=f"satr-workers-{slot}", daemon=True)
            for slot in range(size)
        ]
        self.counters = {
            "cells_total": 0,
            "crashes_total": 0,
            "timeouts_total": 0,
            "retries_total": 0,
            "restarts_total": 0,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self, timeout: float = SPAWN_TIMEOUT_SECONDS) -> None:
        """Spawn every worker (in parallel) and wait for their hellos."""
        for thread in self._threads:
            thread.start()
        deadline = time.monotonic() + timeout
        for event in self._ready:
            remaining = max(0.0, deadline - time.monotonic())
            event.wait(remaining)
        if self.workers_alive() == 0:
            raise WorkerStartupError(
                "no worker survived startup; see stderr for the "
                "workers' own messages")

    def shutdown(self) -> None:
        """Finish every queued task, then stop workers and threads.

        FIFO ordering puts the stop sentinels behind all accepted
        tasks; a crash-retry during drain is answered as an error
        instead of re-queued, so no task can land behind a sentinel
        and strand its client.
        """
        with self._lock:
            self._draining = True
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join()

    def discard_queued(self) -> None:
        """Drop every task no worker has started.

        For a pool whose only client has gone (a private pool after a
        cell raised): otherwise its queued cells would all run before
        :meth:`shutdown` could stop the workers.
        """
        while True:
            try:
                self._tasks.get_nowait()
            except queue.Empty:
                return

    # -- submission -----------------------------------------------------

    def submit(self, cell: Dict[str, Any], client_id: Any,
               reply: Callable[[Dict[str, Any]], None],
               timeout: Optional[float] = None,
               gone: Optional[threading.Event] = None) -> None:
        """Queue one cell; ``reply`` gets the result/error frame.

        ``gone`` is the client connection's closed mark: a task whose
        mark is set when a dispatcher reaches it is dropped unrun.
        """
        with self._lock:
            if self._draining:
                raise RuntimeError("pool is draining")
            self._gid += 1
            gid = self._gid
        self._tasks.put(Task(
            gid=gid, cell=cell,
            timeout=timeout if timeout is not None else self.cell_timeout,
            reply=reply, client_id=client_id,
            retries_left=self.max_retries, gone=gone))

    # -- observability --------------------------------------------------

    def workers_alive(self) -> int:
        return sum(1 for handle in self._handles
                   if handle is not None and handle.alive())

    def queue_depth(self) -> int:
        return self._tasks.qsize()

    def busy(self) -> int:
        with self._lock:
            return self._busy

    def pids(self) -> List[int]:
        return [handle.pid for handle in self._handles
                if handle is not None and handle.alive()]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self.counters)
            busy = self._busy
        counters.update({
            "workers": self.size,
            "workers_alive": self.workers_alive(),
            "workers_busy": busy,
            "queue_depth": self.queue_depth(),
        })
        return counters

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self.counters[name] += delta

    # -- the dispatcher loop --------------------------------------------

    def _spawn(self, slot: int) -> Optional[WorkerHandle]:
        try:
            handle = WorkerHandle()
        except WorkerStartupError as exc:
            self.log(f"worker {slot}: spawn failed: {exc}")
            return None
        self._handles[slot] = handle
        return handle

    def _respawn(self, slot: int) -> Optional[WorkerHandle]:
        old = self._handles[slot]
        if old is not None:
            old.kill()
            self._handles[slot] = None
        self._count("restarts_total")
        handle = self._spawn(slot)
        if handle is not None:
            self.log(f"worker {slot}: respawned as pid {handle.pid}")
        return handle

    def _loop(self, slot: int) -> None:
        handle = self._spawn(slot)
        self._ready[slot].set()
        while True:
            task = self._tasks.get()
            if task is None:
                if handle is not None:
                    handle.stop()
                    self._handles[slot] = None
                return
            if task.gone is not None and task.gone.is_set():
                continue
            with self._lock:
                self._busy += 1
            try:
                handle = self._run_task(slot, handle, task)
            finally:
                with self._lock:
                    self._busy -= 1

    def _run_task(self, slot: int, handle: Optional[WorkerHandle],
                  task: Task) -> Optional[WorkerHandle]:
        """Execute one task; returns the (possibly respawned) handle."""
        if handle is None or not handle.alive():
            handle = self._respawn(slot)
            if handle is None:
                self._fail(task, "crash", "no worker could be started")
                return None
        try:
            handle.send({"type": "run", "id": task.gid,
                         "cell": task.cell})
        except (OSError, ValueError):
            # Died while idle; one fresh attempt with a new process.
            handle = self._respawn(slot)
            if handle is None:
                self._fail(task, "crash", "no worker could be started")
                return None
            try:
                handle.send({"type": "run", "id": task.gid,
                             "cell": task.cell})
            except (OSError, ValueError):
                self._fail(task, "crash", "worker pipe broke twice")
                return handle
        deadline = (time.monotonic() + task.timeout
                    if task.timeout is not None else None)
        try:
            frame = handle.read(deadline)
        except TimeoutError:
            self._count("timeouts_total")
            self.log(f"worker {slot} (pid {handle.pid}): cell exceeded "
                     f"{task.timeout}s; killing and respawning")
            handle = self._respawn(slot)
            self._fail(task, "timeout",
                       f"cell exceeded the {task.timeout}s budget")
            return handle
        except (ProtocolError, OSError):
            frame = None
        if frame is None:
            # Crashed mid-cell.
            self._count("crashes_total")
            self.log(f"worker {slot}: died while executing a cell")
            handle = self._respawn(slot)
            with self._lock:
                draining = self._draining
            if task.retries_left > 0 and not draining:
                task.retries_left -= 1
                task.retried += 1
                self._count("retries_total")
                self._tasks.put(task)  # Another dispatcher picks it up.
            else:
                self._fail(task, "crash",
                           "worker died while executing the cell")
            return handle
        if not isinstance(frame, dict) or frame.get("id") != task.gid:
            self._fail(task, "protocol",
                       f"worker answered out of turn: {frame!r}")
            handle.kill()
            return self._respawn(slot)
        self._count("cells_total")
        answer = dict(frame)
        answer["id"] = task.client_id
        answer["worker"] = slot
        answer["retried"] = task.retried
        self._reply(task, answer)
        return handle

    def _fail(self, task: Task, kind: str, message: str) -> None:
        self._reply(task, {"type": "error", "id": task.client_id,
                           "kind": kind, "error": message})

    @staticmethod
    def _reply(task: Task, answer: Dict[str, Any]) -> None:
        try:
            task.reply(answer)
        except (OSError, ValueError):
            # The client hung up (ValueError: its stream was already
            # closed); the work is simply discarded, and the dispatcher
            # thread must survive to serve the next task.
            pass
