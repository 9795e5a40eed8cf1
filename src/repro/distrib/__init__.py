"""repro.distrib — warm-worker cell execution over the workers' pipes.

``--jobs N > 1`` holds N :func:`local_workers`
(:mod:`repro.distrib.local`) for one command, started by its first
batch with misses: worker processes (:mod:`repro.distrib.worker`)
that import ``repro`` once and then answer length-prefixed
canonical-JSON frames (:mod:`repro.distrib.protocol`) on their
stdin/stdout.  It is the one parallel backend beside the in-process
serial executor; ``--jobs 1`` stays in-process
(``repro.orchestrate.open_executor`` holds the rule).  Byte-identity
with serial execution is the contract; every failure mode degrades
toward in-process execution.

See DESIGN.md §14 for the frame vocabulary, the worker lifecycle, and
the fallbacks.
"""

from repro.distrib.local import LocalWorkers, local_workers
from repro.distrib.protocol import ProtocolError, read_frame, write_frame

__all__ = [
    "LocalWorkers",
    "ProtocolError",
    "local_workers",
    "read_frame",
    "write_frame",
]
