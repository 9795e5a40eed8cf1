"""The orchestrator: cache-aware, optionally parallel cell execution.

``Orchestrator.run`` takes a list of :class:`~repro.orchestrate.cells.Cell`
and returns their payloads **in list order**:

1. every cell's digest is probed against the result cache;
2. the misses run through the configured executor (in-process serial,
   or the command's local warm workers), whose results arrive in
   completion order;
3. each fresh result is stored and reported (progress line, telemetry
   observer) the moment it lands, so a run that raises keeps every
   cell finished before it, and a served run's event stream moves
   while the run is going.

Because cells are deterministic, payloads are canonical JSON values,
and ``run`` always returns results in cell order, the merged report is
byte-identical whether cells ran serially, on warm workers, or were
replayed from the cache — the correctness contract the test suite pins
down.
"""

from typing import Any, List, Optional

from repro.orchestrate.cache import ResultCache
from repro.orchestrate.cells import Cell
from repro.orchestrate.executor import SerialExecutor
from repro.orchestrate.telemetry import Telemetry


class Orchestrator:
    """Executes cell lists; the policy knobs live here.

    ``cache``    — a :class:`ResultCache`, or None to disable caching.
    ``telemetry``— shared across ``run`` calls, so one ``satr all``
                   invocation reports a single hit/miss/wall summary.
    ``executor`` — an executor object (``run_iter`` over
                   ``(index, cell_dict)`` items); None means
                   :class:`SerialExecutor`.  Commands get theirs
                   from :func:`~repro.orchestrate.executor.open_executor`.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 executor: Optional[Any] = None) -> None:
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.executor = executor if executor is not None else SerialExecutor()

    def run(self, cells: List[Cell]) -> List[Any]:
        """Execute (or replay) every cell; payloads in cell order.

        Raises :class:`ValueError` if the executor's stream ends before
        every miss was answered, or yields an index that is not an
        unanswered miss: a truncated run must never merge silently.
        """
        telemetry = self.telemetry
        telemetry.batch_started()
        total = len(cells)
        digests = [cell.digest() for cell in cells]
        payloads: List[Any] = [None] * total

        misses = []
        for index, cell in enumerate(cells):
            record = self.cache.load(digests[index]) if self.cache else None
            if record is not None:
                telemetry.record(cell.name, digests[index],
                                 float(record.get("elapsed", 0.0)),
                                 cached=True, position=index + 1,
                                 total=total)
                payloads[index] = record["payload"]
            else:
                misses.append((index, cell.to_dict()))

        pending = {index for index, _ in misses}
        for index, payload, elapsed in self.executor.run_iter(
                misses, telemetry.executor_fallback):
            if index not in pending:
                raise ValueError(
                    f"executor yielded cell index {index}, which is not "
                    f"an unanswered miss of this run")
            if self.cache is not None:
                self.cache.store(digests[index], cells[index].to_dict(),
                                 payload, elapsed)
            pending.discard(index)
            telemetry.record(cells[index].name, digests[index], elapsed,
                             cached=False, position=index + 1, total=total)
            payloads[index] = payload
        if pending:
            raise ValueError(
                f"executor stream ended with {len(pending)} of "
                f"{len(misses)} cells unanswered")

        telemetry.batch_finished()
        return payloads
