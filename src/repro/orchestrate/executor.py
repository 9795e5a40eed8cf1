"""The executor seam, and the in-process serial executor behind it.

An executor has one method::

  run_iter(items, on_fallback) -> Iterator[CellRun]

It takes ``(index, cell_dict)`` work items and yields one
``(index, payload, elapsed)`` per item in **completion order**;
``Orchestrator.run`` stores and reports each cell as it lands and puts
the payloads back in plan order.  :class:`SerialExecutor` is the
``--jobs 1`` path, and :func:`run_serial` is the tests' reference.
The one parallel executor is ``repro.distrib.LocalWorkers``, the warm
workers ``--jobs N`` starts and drives over their pipes;
:func:`open_executor` holds the rule that picks one.  The orchestrator
neither knows nor cares which one it holds: byte-identity of the
merged report is the shared contract.  A parallel executor that
degrades to in-process execution announces it through
``on_fallback`` — slower, never wrong.
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
    """In-process, one cell after another, in input order."""

    def run_iter(self, items: Iterable[WorkItem],
                 on_fallback: FallbackHook = None) -> Iterator[CellRun]:
        for item in items:
            yield _run_one(item)


def open_executor(jobs: int) -> ContextManager[Any]:
    """The executor one command or served run gets, as a context.

    ``jobs > 1`` holds that many local warm workers for the life of
    the context, started by the first batch with cells to run, and
    ``jobs == 1`` runs in-process and starts nothing.  The distrib
    import is local so a serial run never loads the worker layer.
    """
    if jobs == 1:
        return contextlib.nullcontext(SerialExecutor())
    from repro.distrib.local import local_workers

    return local_workers(jobs)
