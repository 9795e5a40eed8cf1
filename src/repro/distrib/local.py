"""Local warm workers: ``--jobs N`` as a private ``satr workers`` pool.

:func:`local_workers` holds a :class:`LocalWorkers` executor for the
life of one command (or one served run).  Its first batch with cells
to run starts a :class:`~repro.distrib.daemon.WorkersDaemon` with N
workers and runs through a
:class:`~repro.distrib.client.DistribExecutor` for it.  So ``--jobs
N`` runs on the same warm workers, frame protocol and fallback ladder
as an external ``satr workers`` daemon, each worker keeps ``import
repro`` and its boot images across every later target of the command,
and a command the result cache answers whole starts nothing.
``repro.orchestrate.open_executor`` decides when a run gets them
(DESIGN.md §8).
"""

import contextlib
import os
import shutil
import tempfile
import threading
from typing import Any, ContextManager, Iterable, Iterator, Optional

from repro.distrib.client import DistribExecutor
from repro.distrib.daemon import WorkersDaemon
from repro.distrib.pool import WorkerStartupError
from repro.orchestrate.executor import (CellRun, FallbackHook,
                                        SerialExecutor, WorkItem,
                                        _announce_fallback)


class LocalWorkers:
    """``count`` warm workers private to the caller, as an executor.

    The daemon starts with the first ``run_iter`` call that has items.
    It listens on a unix socket inside a fresh :func:`tempfile.mkdtemp`
    directory (mode 0700), never on a TCP port: it imports and calls
    any ``module:function`` a frame names, so only this user may reach
    it.  It is served from a daemon thread.  If no worker says hello,
    that call announces the fallback once, and every batch runs
    in-process through a
    :class:`~repro.orchestrate.executor.SerialExecutor`.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"local workers need count >= 1, got {count}")
        self.count = count
        self._executor: Optional[Any] = None
        self._directory: Optional[str] = None
        self._daemon: Optional[WorkersDaemon] = None
        self._thread: Optional[threading.Thread] = None

    def run_iter(self, items: Iterable[WorkItem],
                 on_fallback: FallbackHook = None) -> Iterator[CellRun]:
        items = list(items)
        if not items:
            return
        if self._executor is None:
            self._executor = self._start(on_fallback)
        yield from self._executor.run_iter(items, on_fallback)

    def close(self) -> None:
        """Drop the cells no worker has started, drain, clean up.

        Only what the first batch started is stopped; a command that
        ran no cell has nothing to drain.
        """
        if self._daemon is not None:
            self._daemon.pool.discard_queued()
            self._daemon.drain()
            self._thread.join()
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)

    def _start(self, on_fallback: FallbackHook) -> Any:
        """The executor for every batch: served workers, or serial."""
        self._directory = tempfile.mkdtemp(prefix="satr-workers-")
        address = "unix:" + os.path.join(self._directory, "pool.sock")
        try:
            daemon = WorkersDaemon(address, self.count, quiet=True)
        except OSError as exc:
            reason = f"cannot listen on {address}: {exc}"
        else:
            try:
                daemon.start()
            except WorkerStartupError as exc:
                reason = str(exc)
                daemon.drain()
                daemon.pool.shutdown()
            else:
                self._daemon = daemon
                self._thread = threading.Thread(
                    target=daemon.serve_forever,
                    name="satr-local-workers", daemon=True)
                self._thread.start()
                return DistribExecutor(daemon.bound)
        _announce_fallback(on_fallback,
                           f"local workers unavailable ({reason}); "
                           f"running all cells in-process")
        return SerialExecutor()


def local_workers(count: int) -> ContextManager[LocalWorkers]:
    """:class:`LocalWorkers` for a ``with`` block, closed on exit."""
    return contextlib.closing(LocalWorkers(count))
