"""The run registry: the daemon's runs, with coalescing.

One :class:`RunRecord` per *execution*.  Submitting a request whose
coalescing key matches a queued or running record joins that record
instead of creating a new one — two identical concurrent requests share
one execution and one event stream, and both responses carry the same
(byte-identical) report.  This is the daemon's only in-flight
deduplication: runs with different keys (a ``no_cache`` request and its
cached twin among them) each compute their own cache misses.

The history is bounded: every queued and running record is held, and
the last ``FINISHED_RUNS_KEPT`` finished ones; the record that finished
longest ago goes first.  An evicted run answers 404.

All state is guarded by one lock with two condition variables on it.
Every event notifies ``_changed``, which event-stream followers
(``GET /runs/<id>/events``) wait on; only ``finish`` and ``fail``
notify ``_ended``, which response waiters (``POST /run`` with
``wait``) wait on, so a waiter wakes once per run, not once per cell.
"""

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.serve.model import RunRequest

#: The run lifecycle, in order.
RUN_STATES = ("queued", "running", "done", "failed")

#: States in which a new identical request may join a record.
_JOINABLE_STATES = ("queued", "running")

#: Finished records held for ``GET /runs`` and ``GET /runs/<id>``, about
#: 2 KB each with their reports and events.
FINISHED_RUNS_KEPT = 1000


@dataclass
class RunRecord:
    """One scenario execution and everything observed about it."""

    id: str
    request: RunRequest
    key: str
    state: str = "queued"
    created_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Streamed progress: state transitions and per-cell completions.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: The rendered report (byte-identical to the CLI's) once done.
    report: Optional[str] = None
    error: Optional[str] = None
    #: True when every cell replayed from the cache (no compute).
    cached: bool = False
    hits: int = 0
    misses: int = 0
    #: Requests served by this record (1 + coalesced joiners).
    clients: int = 1

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    @property
    def elapsed_s(self) -> Optional[float]:
        if self.started_s is None or self.finished_s is None:
            return None
        return self.finished_s - self.started_s

    def summary(self) -> Dict[str, Any]:
        """The JSON-safe row ``GET /runs`` lists."""
        row = {
            "id": self.id,
            "state": self.state,
            "cached": self.cached,
            "clients": self.clients,
            "hits": self.hits,
            "misses": self.misses,
            "events": len(self.events),
        }
        row.update(self.request.describe())
        elapsed = self.elapsed_s
        if elapsed is not None:
            row["elapsed_s"] = round(elapsed, 4)
        if self.error is not None:
            row["error"] = self.error
        return row


class RunRegistry:
    """Thread-safe record store + the coalescing front door."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        lock = threading.Lock()
        self._changed = threading.Condition(lock)
        self._ended = threading.Condition(lock)
        self._clock = clock
        #: The held records by id, in submission order.
        self._runs: Dict[str, RunRecord] = {}
        #: Ids of the held finished records, in the order they finished.
        self._finished: Deque[str] = collections.deque()
        self._inflight_by_key: Dict[str, RunRecord] = {}
        #: Held records per state, kept in step with every transition
        #: and eviction so ``count_state`` never scans the history.
        self._state_counts = {state: 0 for state in RUN_STATES}
        self._counter = 0

    # -- submission / coalescing ---------------------------------------

    def submit(self, request: RunRequest) -> Tuple[RunRecord, bool]:
        """Register a request; returns ``(record, created)``.

        ``created`` is False when the request coalesced onto an
        identical queued/running record — the caller must then *not*
        enqueue new work, just wait on the shared record.
        """
        key = request.key()
        with self._changed:
            existing = self._inflight_by_key.get(key)
            if existing is not None and existing.state in _JOINABLE_STATES:
                existing.clients += 1
                self._append_event(existing, {"type": "coalesced",
                                              "clients": existing.clients})
                return existing, False
            self._counter += 1
            record = RunRecord(
                id=f"run-{self._counter:04d}",
                request=request,
                key=key,
                created_s=self._clock(),
            )
            self._runs[record.id] = record
            self._inflight_by_key[key] = record
            self._state_counts[record.state] += 1
            self._append_event(record, {"type": "state", "state": "queued"})
            return record, True

    # -- lifecycle ------------------------------------------------------

    def mark_running(self, record: RunRecord) -> None:
        with self._changed:
            self._move(record, "running")
            record.started_s = self._clock()
            self._append_event(record, {"type": "state", "state": "running"})

    def finish(self, record: RunRecord, report: str,
               hits: int, misses: int) -> None:
        with self._changed:
            record.report = report
            record.hits = hits
            record.misses = misses
            record.cached = misses == 0 and hits > 0
            self._end(record, "done", {
                "type": "state", "state": "done",
                "cached": record.cached, "hits": hits, "misses": misses,
            })

    def fail(self, record: RunRecord, error: str) -> None:
        with self._changed:
            record.error = error
            self._end(record, "failed", {"type": "state", "state": "failed",
                                         "error": error})

    def add_cell_event(self, record: RunRecord, name: str, cached: bool,
                       elapsed: float, position: int, total: int) -> None:
        """One orchestrator cell finished (the Telemetry observer)."""
        with self._changed:
            self._append_event(record, {
                "type": "cell", "name": name, "cached": cached,
                "elapsed_s": round(elapsed, 4),
                "position": position, "total": total,
            })

    def _move(self, record: RunRecord, state: str) -> None:
        # Caller holds the lock.
        self._state_counts[record.state] -= 1
        self._state_counts[state] += 1
        record.state = state

    def _end(self, record: RunRecord, state: str,
             event: Dict[str, Any]) -> None:
        """Finish ``record``, wake its waiters, evict the oldest."""
        # Caller holds the lock.
        self._move(record, state)
        record.finished_s = self._clock()
        self._inflight_by_key.pop(record.key, None)
        self._append_event(record, event)
        self._ended.notify_all()
        self._finished.append(record.id)
        if len(self._finished) > FINISHED_RUNS_KEPT:
            evicted = self._runs.pop(self._finished.popleft())
            self._state_counts[evicted.state] -= 1

    def _append_event(self, record: RunRecord,
                      event: Dict[str, Any]) -> None:
        # Caller holds the lock.
        event["seq"] = len(record.events)
        record.events.append(event)
        self._changed.notify_all()

    # -- lookup / waiting ----------------------------------------------

    def get(self, run_id: str) -> Optional[RunRecord]:
        """The held record ``run_id``; None once evicted or unknown."""
        with self._changed:
            return self._runs.get(run_id)

    def list_runs(self) -> List[Dict[str, Any]]:
        """Every held run's summary, in submission order."""
        with self._changed:
            return [record.summary() for record in self._runs.values()]

    def count_state(self, state: str) -> int:
        """How many held records are in ``state``."""
        with self._changed:
            return self._state_counts.get(state, 0)

    def wait_finished(self, record: RunRecord,
                      timeout: Optional[float] = None) -> bool:
        """Block until the record reaches done/failed."""
        with self._ended:
            return self._ended.wait_for(lambda: record.finished, timeout)

    def events_since(self, record: RunRecord, start: int,
                     timeout: Optional[float] = None
                     ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events from ``start`` on, blocking until there are some.

        Returns ``(new events, finished)``; an empty event list with
        ``finished=False`` means the timeout elapsed (stream keepalive).
        """
        with self._changed:
            self._changed.wait_for(
                lambda: len(record.events) > start or record.finished,
                timeout)
            return list(record.events[start:]), record.finished
