"""The orchestrator: cache-aware, optionally parallel cell execution.

``Orchestrator.run`` takes a list of :class:`~repro.orchestrate.cells.Cell`
and returns their payloads **in list order**:

1. every cell's digest is probed against the result cache;
2. the misses run through the configured executor (in-process serial,
   or warm workers: local to the command, or a ``satr workers``
   daemon);
3. fresh results are canonicalised (one JSON round trip) and stored.

``Orchestrator.run_iter`` is the streaming variant: it yields
``(index, payload)`` pairs as cells complete (cache hits first, then
misses in completion order), so a sweep-shaped merge can fold payloads
incrementally and a 10,000-cell run holds O(1) payloads instead of
O(n).  ``run`` is ``run_iter`` plus a payload list — both paths share
one driver, so they cannot drift.

Because cells are deterministic, payloads are canonical JSON values,
and ``run`` always returns results in cell order, the merged report is
byte-identical whether cells ran serially, on warm workers, or were
replayed from the cache — the correctness contract the test suite pins
down.
"""

from typing import Any, Iterator, List, Optional, Tuple

from repro.orchestrate.cache import ResultCache
from repro.orchestrate.cells import Cell
from repro.orchestrate.coalesce import InflightCoalescer
from repro.orchestrate.executor import SerialExecutor
from repro.orchestrate.telemetry import Telemetry


class Orchestrator:
    """Executes cell lists; the policy knobs live here.

    ``cache``    — a :class:`ResultCache`, or None to disable caching.
    ``telemetry``— shared across ``run`` calls, so one ``satr all``
                   invocation reports a single hit/miss/wall summary.
    ``coalescer``— an :class:`InflightCoalescer` shared with other
                   orchestrators in the same process (the ``satr
                   serve`` worker pool): cache-missing digests already
                   executing elsewhere are awaited instead of
                   recomputed.
    ``executor`` — an executor object (``run``/``run_iter`` over
                   ``(index, cell_dict)`` items); None means
                   :class:`SerialExecutor`.  Commands get theirs
                   from :func:`~repro.orchestrate.executor.open_executor`.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 coalescer: Optional[InflightCoalescer] = None,
                 executor: Optional[Any] = None) -> None:
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.coalescer = coalescer
        self.executor = executor if executor is not None else SerialExecutor()

    def run(self, cells: List[Cell]) -> List[Any]:
        """Execute (or replay) every cell; payloads in cell order."""
        payloads: List[Any] = [None] * len(cells)
        for index, payload in self._drive(cells, streaming=False):
            payloads[index] = payload
        return payloads

    def run_iter(self, cells: List[Cell]) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, payload)`` as cells complete.

        Cache hits come first (in cell order), then executed misses in
        **completion order**, then coalesced followers.  The caller
        owns each payload the moment it is yielded — the orchestrator
        keeps no payload list, which is what bounds a streaming
        sweep's memory.
        """
        return self._drive(cells, streaming=True)

    def _drive(self, cells: List[Cell],
               streaming: bool) -> Iterator[Tuple[int, Any]]:
        """The single driver behind ``run`` and ``run_iter``."""
        telemetry = self.telemetry
        telemetry.batch_started()
        total = len(cells)
        digests = [cell.digest() for cell in cells]

        misses = []
        followers = []  # (index, in-flight entry) awaiting another leader.
        for index, cell in enumerate(cells):
            record = self.cache.load(digests[index]) if self.cache else None
            if record is not None:
                telemetry.record(cell.name, digests[index],
                                 float(record.get("elapsed", 0.0)),
                                 cached=True, position=index + 1,
                                 total=total)
                yield index, record["payload"]
            elif self.coalescer is not None:
                leader, entry = self.coalescer.join(digests[index])
                if leader:
                    misses.append((index, cell.to_dict()))
                else:
                    followers.append((index, entry))
            else:
                misses.append((index, cell.to_dict()))

        if misses:
            claimed = {digests[index] for index, _ in misses}
            try:
                if streaming:
                    runs = self.executor.run_iter(
                        misses, telemetry.executor_fallback)
                else:
                    runs = self.executor.run(
                        misses, telemetry.executor_fallback)
                for index, payload, elapsed in runs:
                    if self.cache is not None:
                        self.cache.store(digests[index],
                                         cells[index].to_dict(),
                                         payload, elapsed)
                    if self.coalescer is not None:
                        self.coalescer.publish(digests[index], payload,
                                               elapsed)
                        claimed.discard(digests[index])
                    telemetry.record(cells[index].name, digests[index],
                                     elapsed, cached=False,
                                     position=index + 1, total=total)
                    yield index, payload
            finally:
                # A cell exception (or an abandoned run_iter consumer)
                # must not strand followers on other threads: resolve
                # every unpublished claim as failed.
                if self.coalescer is not None:
                    for digest in claimed:
                        self.coalescer.abandon(digest, "leader failed")

        # Leaders published above, before any wait here, so two runs
        # leading each other's followers can never deadlock.
        for index, entry in followers:
            payload, elapsed = InflightCoalescer.wait(entry)
            if self.cache is not None:
                # The leader stored under *its* cache; keep ours warm too
                # (byte-identical record, so a shared root is idempotent).
                self.cache.store(digests[index], cells[index].to_dict(),
                                 payload, elapsed)
            telemetry.record(cells[index].name, digests[index], elapsed,
                             cached=True, position=index + 1, total=total)
            yield index, payload

        telemetry.batch_finished()
