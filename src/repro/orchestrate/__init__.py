"""``repro.orchestrate`` — parallel, cache-aware experiment execution.

The paper's evaluation is embarrassingly parallel: 4 kernels x 11 apps
x up to 100 rounds per figure, every unit independently seeded.  This
package turns each experiment into a list of deterministic **cells**
(one self-contained simulation each) plus a pure **merge**, and runs
cell lists through:

* :class:`Orchestrator` — the façade: cache probe, executor dispatch,
  and each cell stored and reported as it lands;
* :mod:`~repro.orchestrate.executor` — the executor seam and the
  in-process :class:`SerialExecutor`; ``--jobs N`` runs cells on N
  warm workers through the same seam (``repro.distrib``);
* :class:`ResultCache` — content-addressed on-disk JSON artifacts keyed
  by package version + experiment + scale + seed + kernel-config
  fields, so a warm ``satr all`` rerun is near-instant;
* :class:`Telemetry` — per-cell timing and the hit/miss summary line.

Determinism contract: serial, parallel and cache-replayed runs of the
same cell list merge into byte-identical reports.

Deduplication across time is the cache's job.  Across concurrency it
is not this package's: identical in-flight ``satr serve`` requests
share one run in ``repro.serve``'s run registry, and two different
runs never wait on each other's cells.
"""

from repro.orchestrate.cache import (
    CACHE_DIR_ENV,
    BoundedMemo,
    ResultCache,
    default_cache_dir,
)
from repro.orchestrate.cells import (
    Cell,
    canonical_json,
    canonicalize,
    execute_cell,
    jsonable,
    kernel_config_fields,
    resolve_cell_fn,
)
from repro.orchestrate.executor import SerialExecutor, open_executor
from repro.orchestrate.orchestrator import Orchestrator
from repro.orchestrate.telemetry import CellRecord, Telemetry

__all__ = [
    "CACHE_DIR_ENV",
    "BoundedMemo",
    "Cell",
    "CellRecord",
    "Orchestrator",
    "ResultCache",
    "SerialExecutor",
    "Telemetry",
    "open_executor",
    "canonical_json",
    "canonicalize",
    "default_cache_dir",
    "execute_cell",
    "jsonable",
    "kernel_config_fields",
    "resolve_cell_fn",
]
