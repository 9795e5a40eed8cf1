"""The translation-policy hook surface and registry.

A :class:`TranslationPolicy` packages one alternative translation
design — how TLB misses, evictions and fills, hardware PTE walks, PTP
share/unshare, fork and context switch behave — behind a fixed hook
surface that the hw and core layers call through.  The baseline policy
is inert (``active`` is False), so every hook site costs one attribute
read when no policy is installed, exactly like the tracer/checker/
sampler wiring.

Unlike those three, a policy **changes simulation semantics**, so the
policy *name* is a real :class:`~repro.kernel.config.KernelConfig`
field and enters the orchestrator's cache digests (see
``kernel_config_fields``): two cells that differ only in policy can
never satisfy each other's cached results.

Hook surface (all optional; the base class no-ops):

* ``tlb_miss_probe(core, task, vpn)`` — consulted on a main-TLB miss
  *before* the hardware walk; may return a revived entry and its stall.
* ``on_tlb_fill / on_tlb_evict`` — main-TLB fill and LRU eviction.
* ``on_tlb_flush(kind, asid, vpn)`` — mirrors every main-TLB flush
  operation (``all`` / ``non-global`` / ``asid`` / ``va``).
* ``pte_walk_paddr(core, task, ptp, index, paddr)`` — may redirect the
  level-2 PTE read of a hardware walk to a different physical address
  (per-node replicas).
* ``on_ptp_share / on_ptp_unshare / on_pte_write`` — the PTP sharing
  protocol and individual PTE installs.
* ``on_fork / on_context_switch`` — process lifecycle.
* ``event_counts / gauges / shadow_entries / check_invariants`` —
  introspection for the metrics sampler, ``satr compare`` and the
  invariant checker.

Policies self-describe config implications via ``implied_config``:
field overrides applied to the kernel configuration at construction
(``nodomain-flush`` implies ``domain_support=False``), so one registry
mechanism covers designs that were previously ad-hoc config ablations.
"""

import importlib
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.common.errors import ConfigError


class TranslationPolicy:
    """Base policy: every hook is a no-op.

    Concrete policies set ``name``, usually ``active = True``, and
    override the hooks they need.  ``kernel`` is the owning
    :class:`~repro.kernel.kernel.Kernel` (None only for the shared
    ``NULL_POLICY`` default attached to unwired hardware objects).
    """

    #: Registry name; also the ``KernelConfig.policy`` value.
    name = "baseline"
    #: When False, hook sites skip the call entirely (the tracer idiom).
    active = False
    #: KernelConfig field overrides applied at kernel construction.
    implied_config: Dict[str, Any] = {}

    def __init__(self, kernel=None) -> None:
        self.kernel = kernel

    # -- TLB hooks ----------------------------------------------------

    def tlb_miss_probe(self, core, task, vpn: int):
        """Chance to resolve a main-TLB miss before the hardware walk.

        Returns ``(entry_or_None, stall_cycles)``.  A returned entry is
        treated as a main-TLB hit (the policy is responsible for any
        main-TLB reinsertion it wants).
        """
        return None, 0

    def on_tlb_fill(self, core, task, entry) -> None:
        """A walk filled ``entry`` into the main TLB."""

    def on_tlb_evict(self, core, victim) -> None:
        """``victim`` was LRU-evicted from the main TLB."""

    def on_tlb_flush(self, kind: str, asid: Optional[int] = None,
                     vpn: Optional[int] = None) -> None:
        """A main-TLB flush operation ran (any core)."""

    # -- walk hooks ---------------------------------------------------

    def pte_walk_paddr(self, core, task, ptp, index: int,
                       paddr: int) -> int:
        """The physical address a hardware walk reads the PTE from."""
        return paddr

    # -- page-table protocol hooks ------------------------------------

    def on_ptp_share(self, ptp, protected: int) -> None:
        """A PTP was shared at fork (``protected`` PTEs write-protected)."""

    def on_ptp_unshare(self, ptp, trigger: str, copied: int) -> None:
        """A PTP was unshared (``copied`` PTEs copied to the new PTP)."""

    def on_pte_write(self, ptp, index: int) -> None:
        """One PTE was installed/rewritten in ``ptp``."""

    # -- lifecycle hooks ----------------------------------------------

    def on_fork(self, parent, child) -> None:
        """A fork completed."""

    def on_context_switch(self, core, prev, task) -> None:
        """``core`` switched from ``prev`` (may be None) to ``task``."""

    # -- introspection ------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        """Monotonic event counters (feed ``satr_policy_events_total``).

        Must always be non-empty with a stable key set so the metric
        has at least one exposition sample under every policy.
        """
        return {"none": 0}

    def gauges(self) -> Dict[str, float]:
        """Point-in-time policy gauges for the ``satr compare`` table.

        Defaults to the event counters; policies may add derived
        quantities (e.g. replica page-table bytes).
        """
        return dict(self.event_counts())

    def shadow_entries(self) -> Iterable:
        """TLB-shaped entries the policy holds outside the TLBs.

        The invariant checker verifies each against the page tables
        with the same rules as live TLB entries.
        """
        return ()

    def check_invariants(self) -> Iterable[str]:
        """Policy-specific invariant problems (empty when consistent)."""
        return ()


class BaselinePolicy(TranslationPolicy):
    """The paper's unmodified translation pipeline (inert hooks)."""

    name = "baseline"
    active = False


#: Shared inert default for unwired hardware objects (class attrs on
#: MainTlb / Mmu / PageTableManager), mirroring NULL_TRACER.
NULL_POLICY = BaselinePolicy()


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

#: Built-in policies by dotted path; imported lazily on first lookup so
#: the base module stays import-cycle-free and cheap.
_BUILTIN: Dict[str, str] = {
    "baseline": "repro.policy.base:BaselinePolicy",
    "victima": "repro.policy.victima:VictimaPolicy",
    "replicated-pt": "repro.policy.replicated:ReplicatedPtPolicy",
    "nodomain-flush": "repro.policy.nodomain:NoDomainFlushPolicy",
}

#: Policies registered at runtime (tests, extensions).
_EXTRA: Dict[str, type] = {}


def policy_names() -> Tuple[str, ...]:
    """Every registered policy name, sorted."""
    return tuple(sorted(set(_BUILTIN) | set(_EXTRA)))


def policy_class(name: str) -> type:
    """Resolve a policy name to its class; raises ConfigError."""
    if name in _EXTRA:
        return _EXTRA[name]
    try:
        path = _BUILTIN[name]
    except KeyError:
        raise ConfigError(
            f"unknown translation policy {name!r}; known: "
            f"{', '.join(policy_names())}"
        ) from None
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def is_builtin_policy(name: str) -> bool:
    """Does ``name`` resolve to a built-in policy (not a registration)?"""
    return name in _BUILTIN and name not in _EXTRA


def make_policy(name: str, kernel) -> TranslationPolicy:
    """Instantiate one policy for ``kernel``."""
    return policy_class(name)(kernel)


def register_policy(cls: type) -> type:
    """Register a policy class under ``cls.name`` (usable as decorator)."""
    if not cls.name:
        raise ConfigError("a policy must declare a non-empty name")
    _EXTRA[cls.name] = cls
    return cls


def unregister_policy(name: str) -> None:
    """Remove a runtime-registered policy (tests clean up with this)."""
    _EXTRA.pop(name, None)
