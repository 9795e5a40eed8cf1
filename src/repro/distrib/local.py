"""Local warm workers: ``--jobs N`` as a private ``satr workers`` pool.

:func:`local_workers` runs a :class:`~repro.distrib.daemon.WorkersDaemon`
with N workers for the life of one command (or one served run) and
hands out a :class:`~repro.distrib.client.DistribExecutor` for it.  So
``--jobs N`` runs on the same warm workers, frame protocol and
fallback ladder as an external ``satr workers`` daemon, and each
worker keeps ``import repro`` and its boot images across every target
of the command.  ``repro.orchestrate.open_executor`` decides when a
run gets them (DESIGN.md §8).
"""

import contextlib
import os
import shutil
import tempfile
import threading
from typing import Any, Iterator, Optional

from repro.distrib.client import DistribExecutor
from repro.distrib.daemon import WorkersDaemon
from repro.distrib.pool import WorkerStartupError
from repro.orchestrate.executor import (FallbackHook, SerialExecutor,
                                        _announce_fallback)


@contextlib.contextmanager
def local_workers(count: int,
                  on_fallback: FallbackHook = None) -> Iterator[Any]:
    """``count`` warm workers private to the caller, as an executor.

    The daemon listens on a unix socket inside a fresh
    :func:`tempfile.mkdtemp` directory (mode 0700), never on a TCP
    port: it imports and calls any ``module:function`` a frame names,
    so only this user may reach it.  It is served from a daemon
    thread; on exit, cells no worker has started are dropped, the pool
    drains and the directory is removed.  If no worker says hello, the
    fallback is announced once and the body gets a
    :class:`~repro.orchestrate.executor.SerialExecutor` instead.
    """
    if count < 1:
        raise ValueError(f"local workers need count >= 1, got {count}")
    directory = tempfile.mkdtemp(prefix="satr-workers-")
    try:
        daemon = _start_daemon(directory, count, on_fallback)
        if daemon is None:
            yield SerialExecutor()
            return
        thread = threading.Thread(target=daemon.serve_forever,
                                  name="satr-local-workers", daemon=True)
        thread.start()
        try:
            yield DistribExecutor(daemon.bound)
        finally:
            daemon.pool.discard_queued()
            daemon.drain()
            thread.join()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _start_daemon(directory: str, count: int,
                  on_fallback: FallbackHook) -> Optional[WorkersDaemon]:
    """A started daemon in ``directory``; None, announced, if none."""
    address = "unix:" + os.path.join(directory, "pool.sock")
    try:
        daemon = WorkersDaemon(address, count, quiet=True)
    except OSError as exc:
        reason = f"cannot listen on {address}: {exc}"
    else:
        try:
            daemon.start()
            return daemon
        except WorkerStartupError as exc:
            reason = str(exc)
        daemon.drain()
        daemon.pool.shutdown()
    _announce_fallback(on_fallback,
                       f"local workers unavailable ({reason}); running "
                       f"all cells in-process")
    return None

