"""Streaming merges: fold completion-order payloads in index order.

``Orchestrator.run_iter`` yields ``(index, payload)`` in completion
order; every merge in ``repro.experiments`` is defined over payloads
in **plan order**.  :func:`fold_ordered` bridges the two without
materialising the payload list: out-of-order arrivals wait in a
buffer, and each payload is folded into the accumulator (and dropped)
the moment the in-order cursor reaches it.

Memory contract: the resident set is the accumulator plus the buffer
of payloads that arrived ahead of the cursor.  A serial stream arrives
in order, so the buffer stays empty and a 10,000-cell sweep folds with
O(1) resident payloads.  A parallel executor submits every cell up
front, so while a slow cell holds the cursor the other workers can
finish every later cell: the buffer then holds up to n - 1 of n
payloads.  ``FoldStats.peak_buffered`` reports the high-water mark so
tests can pin both cases.

``available`` plugs cross-run reuse in: an object answering
``index in available`` / ``available[index]`` (for example a lazy view
over a previous sweep's manifest) supplies payloads for cells that
did not need re-executing, loaded only when the cursor reaches them
and dropped after folding, so reuse adds nothing to the buffer.
"""

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple

#: ``fold(acc, index, payload) -> acc`` — must not retain ``payload``.
Fold = Callable[[Any, int, Any], Any]


@dataclass
class FoldStats:
    """What one streaming fold did — the memory contract's receipts."""

    folded: int = 0
    reused: int = 0
    #: High-water mark of payloads parked waiting for the cursor.
    peak_buffered: int = 0


def fold_ordered(runs: Iterable[Tuple[int, Any]], fold: Fold,
                 initial: Any, total: int,
                 available: Optional[Any] = None,
                 stats: Optional[FoldStats] = None) -> Any:
    """Fold ``total`` payloads in index order from an unordered stream.

    ``runs`` yields ``(index, payload)`` pairs (longer tuples are
    tolerated; extras are ignored) for every index not satisfied by
    ``available``.  Raises :class:`ValueError` if the stream ends
    before every index was folded — a truncated sweep must never merge
    silently.
    """
    if stats is None:
        stats = FoldStats()
    acc = initial
    buffered = {}
    runs_iter = iter(runs)
    for cursor in range(total):
        if cursor in buffered:
            payload = buffered.pop(cursor)
        elif available is not None and cursor in available:
            payload = available[cursor]
            stats.reused += 1
        else:
            payload = _pull(runs_iter, cursor, buffered, stats, total)
        acc = fold(acc, cursor, payload)
        stats.folded += 1
    return acc


def _pull(runs_iter: Any, cursor: int, buffered: dict,
          stats: FoldStats, total: int) -> Any:
    """Drain the stream until ``cursor``'s payload arrives."""
    for run in runs_iter:
        index, payload = run[0], run[1]
        if index == cursor:
            return payload
        if not 0 <= index < total or index in buffered:
            raise ValueError(
                f"stream yielded unexpected index {index} "
                f"(total {total}, cursor {cursor})")
        buffered[index] = payload
        if len(buffered) > stats.peak_buffered:
            stats.peak_buffered = len(buffered)
    raise ValueError(
        f"stream ended before cell {cursor} of {total} arrived")
