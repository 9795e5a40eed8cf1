"""``repro.check``: the correctness subsystem behind ``satr check``.

Two independent halves, both config-blind by construction:

* :mod:`repro.check.invariants` — a runtime :class:`InvariantChecker`
  swept at kernel step boundaries (refcounts, COW protection, TLB
  coherence, domain confinement), attached as a kernel lifecycle
  observer, never a ``KernelConfig`` field.
* :mod:`repro.check.semantic` — the differential oracle's state
  extractor: the observable (fault-visible) address-space state of a
  kernel, designed so two runs of one workload under different sharing
  configurations compare equal exactly when sharing preserved
  semantics.

:mod:`repro.check.inject` holds the seeded protocol mutations that
prove both halves have teeth.
"""

from repro.check.inject import (
    apply_mutation,
    describe_mutation,
    mutation_names,
)
from repro.check.invariants import (
    DEFAULT_RUN_GAP,
    InvariantChecker,
    InvariantViolation,
    verify_kernel,
)
from repro.check.semantic import diff_states, semantic_state

__all__ = [
    "DEFAULT_RUN_GAP",
    "InvariantChecker",
    "InvariantViolation",
    "apply_mutation",
    "describe_mutation",
    "diff_states",
    "mutation_names",
    "semantic_state",
    "verify_kernel",
]
