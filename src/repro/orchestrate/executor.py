"""The executor seam, and the in-process serial executor behind it.

Every executor takes ``(index, cell_dict)`` work items and exposes the
same two methods:

  run(items, on_fallback)      -> List[CellRun] in **input order**
  run_iter(items, on_fallback) -> Iterator[CellRun] in **completion
                                  order** (the streaming-merge feed)

:class:`SerialExecutor` is the reference and the ``--jobs 1`` path.
The one parallel executor is ``repro.distrib.DistribExecutor``, over a
``satr workers`` daemon or over the local warm workers ``--jobs N``
starts (``repro.distrib.local``); :func:`open_executor` holds the rule
that picks one.  The orchestrator neither knows nor cares which one it
holds: byte-identity of the merged report is the shared contract.  A
parallel executor that degrades to in-process execution announces it
through ``on_fallback`` — slower, never wrong.
"""

import contextlib
import time
import warnings
from typing import (Any, Callable, ContextManager, Dict, Iterable,
                    Iterator, List, Optional, Tuple)

from repro.orchestrate.cells import execute_cell

#: (index, cell description) — what executors consume.
WorkItem = Tuple[int, Dict[str, Any]]
#: (index, payload, elapsed seconds) — what executors produce.
CellRun = Tuple[int, Any, float]
#: Called with a human-readable reason whenever an executor degrades
#: to in-process execution; orchestrator telemetry and the
#: ``satr_executor_fallbacks_total`` counter hang off it.
FallbackHook = Optional[Callable[[str], None]]


def _announce_fallback(on_fallback: FallbackHook, reason: str) -> None:
    """Route a degradation through the hook, or warn if nobody listens."""
    if on_fallback is not None:
        on_fallback(reason)
    else:
        warnings.warn(reason, RuntimeWarning, stacklevel=3)


def _run_one(item: WorkItem) -> CellRun:
    """Execute one cell in this process and time it."""
    index, cell_dict = item
    started = time.perf_counter()
    payload = execute_cell(cell_dict)
    return index, payload, time.perf_counter() - started


def run_serial(items: Iterable[WorkItem]) -> List[CellRun]:
    """Execute work items one after another, in order."""
    return [_run_one(item) for item in items]


class SerialExecutor:
    """In-process, one cell after another.  The reference executor."""

    name = "serial"

    def run(self, items: List[WorkItem],
            on_fallback: FallbackHook = None) -> List[CellRun]:
        return run_serial(items)

    def run_iter(self, items: Iterable[WorkItem],
                 on_fallback: FallbackHook = None) -> Iterator[CellRun]:
        for item in items:
            yield _run_one(item)


def open_executor(jobs: int, address: Optional[str] = None,
                  on_fallback: FallbackHook = None) -> ContextManager[Any]:
    """The executor one command or served run gets, as a context.

    ``address`` (``--workers-at`` / ``$SATR_WORKERS``) selects that
    ``satr workers`` daemon.  Otherwise ``jobs > 1`` starts that many
    local warm workers for the life of the context, and ``jobs == 1``
    runs in-process and starts nothing.  The distrib imports are local
    so a serial run never loads the socket layer.
    """
    if address:
        from repro.distrib.client import DistribExecutor

        return contextlib.nullcontext(DistribExecutor(address))
    if jobs == 1:
        return contextlib.nullcontext(SerialExecutor())
    from repro.distrib.local import local_workers

    return local_workers(jobs, on_fallback)
