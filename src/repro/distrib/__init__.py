"""repro.distrib — persistent warm-worker cell execution over sockets.

A ``satr workers`` daemon (:mod:`repro.distrib.daemon`) pre-spawns N
worker processes (:mod:`repro.distrib.worker`) that import ``repro``
once and then loop on length-prefixed canonical-JSON frames
(:mod:`repro.distrib.protocol`).  A :class:`DistribExecutor`
(:mod:`repro.distrib.client`) plugs into the orchestrator beside the
in-process serial executor; it is the one parallel backend.
``--workers-at`` / ``$SATR_WORKERS`` selects an external daemon, and
``--jobs N > 1`` starts N :func:`local_workers`
(:mod:`repro.distrib.local`) for the command; ``--jobs 1`` stays
in-process (``repro.orchestrate.open_executor`` holds the rule).
Byte-identity with serial execution is the contract; every failure
mode degrades toward in-process execution.

See DESIGN.md §14 for the frame vocabulary, the worker lifecycle, and
the retry/fallback ladder.
"""

from repro.distrib.client import (
    DistribExecutor,
    fetch_pool_stats,
    pool_alive,
)
from repro.distrib.daemon import DEFAULT_SOCKET, WorkersDaemon, run_daemon
from repro.distrib.local import local_workers
from repro.distrib.pool import WorkerPool, WorkerStartupError
from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    WORKERS_ENV,
    ProtocolError,
    default_address,
    parse_address,
    read_frame,
    write_frame,
)

__all__ = [
    "DEFAULT_SOCKET",
    "DistribExecutor",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WORKERS_ENV",
    "WorkerPool",
    "WorkerStartupError",
    "WorkersDaemon",
    "default_address",
    "fetch_pool_stats",
    "local_workers",
    "parse_address",
    "pool_alive",
    "read_frame",
    "run_daemon",
    "write_frame",
]
