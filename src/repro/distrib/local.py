"""Local warm workers: ``--jobs N`` drives N workers over their pipes.

:func:`local_workers` holds a :class:`LocalWorkers` executor for the
life of one command (or one served run).  Its first batch with cells
to run starts N ``python -m repro.distrib.worker`` processes; every
batch then drives them from one generator, which writes a ``run``
frame to each idle worker's stdin and ``select``\\ s on their stdout
pipes.  Each worker keeps ``import repro`` and its boot images across
every later target of the command, and a command the result cache
answers whole starts nothing.  ``repro.orchestrate.open_executor``
decides when a run gets them (DESIGN.md §8).

Only this process writes to a worker's stdin: no socket, no address,
so no other process can hand a worker a ``module:function`` to call.

Fallbacks, each announced through ``on_fallback`` ("slower, never
wrong"):

- no worker says hello: every batch runs in-process, announced once;
- a worker dies mid-cell: it is respawned and the cell sent once
  more; a second death runs the cell in-process;
- a cell raises: it is re-run in-process, so the exception surfaces
  exactly as a serial run's would.

An abandoned batch waits for the answers still in flight, so none is
read as a later cell's.
"""

import contextlib
import os
import select
import subprocess
import sys
import time
from collections import deque
from typing import (Any, ContextManager, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

import repro
from repro.distrib.protocol import ProtocolError, read_frame, write_frame
from repro.orchestrate.executor import (CellRun, FallbackHook, WorkItem,
                                        _announce_fallback, _run_one)

#: How long one worker may take to import repro and say hello.
SPAWN_TIMEOUT_SECONDS = 120.0

#: Seconds a stopping worker gets to see end of stdin and exit.
STOP_TIMEOUT_SECONDS = 10.0


class WorkerStartupError(RuntimeError):
    """A worker process could not be spawned or never said hello."""


def worker_command() -> List[str]:
    """The subprocess argv for one worker."""
    return [sys.executable, "-m", "repro.distrib.worker"]


def worker_env() -> Dict[str, str]:
    """The child environment, with ``repro`` importable.

    If this process found the package via a runtime ``sys.path`` edit
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


class Worker:
    """One worker subprocess and its frame pipes."""

    def __init__(self) -> None:
        # bufsize=0: raw pipes, so select() on stdout sees exactly the
        # bytes a read would, with none hiding in a BufferedReader.
        try:
            self.proc = subprocess.Popen(
                worker_command(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env=worker_env(), bufsize=0)
        except OSError as exc:
            raise WorkerStartupError(
                f"worker could not be spawned: {exc}") from None
        self.stdout = self.proc.stdout

    def greet(self, deadline: float) -> None:
        """Wait until ``deadline`` (monotonic) for the worker's hello.

        A worker that is silent, exits or greets with anything else is
        killed, and :class:`WorkerStartupError` says why.
        """
        ready, _, _ = select.select(
            [self.stdout], [], [], max(0.0, deadline - time.monotonic()))
        hello = self.read() if ready else None
        if not isinstance(hello, dict) or hello.get("type") != "hello":
            self.kill()
            raise WorkerStartupError(
                f"worker never said hello (got {hello!r})")

    def send(self, frame: Dict[str, Any]) -> bool:
        """Write one frame to the worker; False if its stdin is gone."""
        try:
            write_frame(self.proc.stdin, frame)
        except (OSError, ValueError):
            return False
        return True

    def read(self) -> Optional[Any]:
        """The worker's next frame; None once it has died."""
        try:
            return read_frame(self.stdout)
        except (ProtocolError, OSError, ValueError):
            return None

    def stop(self) -> None:
        """Close stdin (a worker exits at its end); kill if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(STOP_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            self.kill()
        self.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def _spawn(count: int) -> Tuple[List[Worker], List[str]]:
    """``count`` greeted workers, started in parallel; why others failed."""
    started, reasons = [], []
    for _ in range(count):
        try:
            started.append(Worker())
        except WorkerStartupError as exc:
            reasons.append(str(exc))
    deadline = time.monotonic() + SPAWN_TIMEOUT_SECONDS
    greeted = []
    for worker in started:
        try:
            worker.greet(deadline)
        except WorkerStartupError as exc:
            reasons.append(str(exc))
        else:
            greeted.append(worker)
    return greeted, reasons


class LocalWorkers:
    """``count`` warm workers private to the caller, as an executor.

    The workers start with the first ``run_iter`` call that has items.
    If none says hello, that call announces the fallback once, and
    every batch runs in-process.  ``run_iter`` yields
    ``(index, payload, elapsed)`` in completion order.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"local workers need count >= 1, got {count}")
        self.count = count
        self._workers: Optional[List[Worker]] = None
        #: Set when no worker said hello: every batch runs in-process.
        self._unavailable = False

    def run_iter(self, items: Iterable[WorkItem],
                 on_fallback: FallbackHook = None) -> Iterator[CellRun]:
        items = list(items)
        if not items:
            return
        if self._workers is None:
            self._workers, reasons = _spawn(self.count)
            if not self._workers:
                self._unavailable = True
                _announce_fallback(
                    on_fallback,
                    f"local workers unavailable ({reasons[0]}); "
                    f"running all cells in-process")
        if self._unavailable:
            for item in items:
                yield _run_one(item)
            return
        yield from self._drive(items, on_fallback)

    def close(self) -> None:
        """Stop every worker; a command that ran no cell started none."""
        for worker in self._workers or ():
            worker.stop()
        self._workers = []

    def _drive(self, items: List[WorkItem],
               on_fallback: FallbackHook) -> Iterator[CellRun]:
        """One batch over the workers, results in completion order."""
        pending = deque(items)
        idle = list(self._workers)
        #: worker -> (the item it runs, whether a worker died on it)
        busy: Dict[Worker, Tuple[WorkItem, bool]] = {}
        #: Items to run in this process, after workers failed them.
        local: "deque[WorkItem]" = deque()

        def send(worker: Worker, item: WorkItem, retried: bool) -> None:
            if worker.send({"type": "run", "id": item[0],
                            "cell": item[1]}):
                busy[worker] = (item, retried)
            else:  # It died while idle.
                died(worker, item, retried)

        def died(worker: Worker, item: WorkItem, retried: bool) -> None:
            fresh = self._respawn(worker)
            if fresh is not None and not retried:
                send(fresh, item, True)
                return
            if fresh is not None:
                idle.append(fresh)
            why = "twice" if retried else "and none restarted"
            _announce_fallback(
                on_fallback, f"local worker died running cell {item[0]} "
                             f"{why}; running it in-process")
            local.append(item)

        try:
            while pending or busy or local:
                while idle and pending:
                    send(idle.pop(), pending.popleft(), False)
                if local:
                    yield _run_one(local.popleft())
                    continue
                if not busy:
                    _announce_fallback(
                        on_fallback, f"no local worker left; running "
                                     f"{len(pending)} remaining cells "
                                     f"in-process")
                    local.extend(pending)
                    pending.clear()
                    continue
                ready, _, _ = select.select(
                    [worker.stdout for worker in busy], [], [])
                for worker in [w for w in busy if w.stdout in ready]:
                    item, retried = busy.pop(worker)
                    frame = worker.read()
                    if (not isinstance(frame, dict)
                            or frame.get("id") != item[0]):
                        died(worker, item, retried)
                        continue
                    idle.append(worker)
                    if frame.get("type") == "result":
                        # Feed the worker before the consumer runs.
                        if pending:
                            send(idle.pop(), pending.popleft(), False)
                        yield (item[0], frame["payload"],
                               float(frame.get("elapsed", 0.0)))
                        continue
                    # A cell exception is re-run here, so it propagates
                    # from this stack exactly as a serial run's would.
                    _announce_fallback(
                        on_fallback,
                        f"local worker failed cell {item[0]} "
                        f"({frame.get('kind')}: {frame.get('error')}); "
                        f"running it in-process")
                    yield _run_one(item)
        finally:
            # Abandoned: read the answers still owed, so none is taken
            # for a later batch's cell.
            for worker in busy:
                worker.read()

    def _respawn(self, dead: Worker) -> Optional[Worker]:
        """Replace a dead worker; None if no new one says hello."""
        dead.kill()
        self._workers.remove(dead)
        fresh, _ = _spawn(1)
        self._workers.extend(fresh)
        return fresh[0] if fresh else None


def local_workers(count: int) -> ContextManager[LocalWorkers]:
    """:class:`LocalWorkers` for a ``with`` block, closed on exit."""
    return contextlib.closing(LocalWorkers(count))
