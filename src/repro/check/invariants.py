"""The runtime invariant checker (the dynamic half of ``satr check``).

:func:`verify_kernel` sweeps one kernel's entire translation state —
page tables, TLBs, frame refcounts, domain registers — and raises
:class:`InvariantViolation` on the first inconsistency.  The invariant
families, straight from the paper's protocol (Section 3.1-3.2):

1. **Refcounts.** Every PTP frame's ``mapcount`` equals the number of
   level-1 slots (across all live address spaces) referencing it — the
   sharer count the unshare protocol keys off — and every data frame's
   ``mapcount`` equals the number of valid PTEs mapping it (one per
   physical PTP, however many spaces share it; the zero frame holds one
   permanent extra reference).
2. **COW protection.** A slot marked ``NEED_COPY`` references a PTP with
   no user-writable PTEs (unless the x86-style level-1 write-protect
   ablation is active), a PTP shared by more than one slot is marked
   ``NEED_COPY`` in every sharer, and the mark is consistent across
   sharers.
3. **TLB coherence.** Every cached entry (main and micro TLBs, every
   core) must still be backed by the page tables that filled it: kernel
   entries obey the linear kernel map; user entries resolve through a
   live task's tables to the same frame with no *more* permission than
   the PTE grants (a less-permissive stale entry only costs a spurious
   fault and is legal; a more-permissive one is a protection hole).
4. **Domain confinement.** Global (ASID-ignoring) entries exist only
   under TLB sharing, only for VMAs marked global, live in the zygote
   domain when domains are modelled, and non-zygote-like tasks hold no
   DACR access to that domain (Section 3.2.3).
5. **Containment.** Every valid PTE falls inside a VMA of every address
   space that maps it.

:class:`InvariantChecker` packages the sweep as a kernel lifecycle
observer: attached through ``Kernel(config, observers=...)`` (never a
``KernelConfig`` field, so orchestrator cache digests are untouched).
Kernel operations that move translation state (exec, fork, exit,
mmap/munmap/mprotect) are checked unconditionally; engine run
boundaries are checked once at least ``run_gap_events`` access events
have executed since the last sweep, which bounds sweep cost on
invocation-heavy workloads (binder) without ever letting a long trace
run unchecked.
"""

from typing import Dict, Optional

from repro.common.constants import (
    DOMAIN_KERNEL,
    DOMAIN_ZYGOTE,
    PAGE_SHIFT,
)
from repro.common.errors import SimulationError
from repro.hw.domain import DomainAccess
from repro.hw.memory import FrameKind
from repro.hw.mmu import KERNEL_PFN_BASE
from repro.hw.pagetable import Pte


class InvariantViolation(SimulationError):
    """A protocol invariant does not hold; always a simulator bug (or a
    deliberately injected one — see :mod:`repro.check.inject`)."""


def _fail(site: str, message: str) -> None:
    raise InvariantViolation(f"[{site}] {message}")


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------

def verify_kernel(kernel, site: str = "manual") -> None:
    """Check every invariant family; raises on the first violation."""
    live = sorted(kernel.live_tasks(), key=lambda t: t.pid)
    _verify_tables(kernel, live, site)
    _verify_dacrs(kernel, live, site)
    _verify_tlbs(kernel, live, site)
    _verify_policy(kernel, live, site)


def _verify_tables(kernel, live, site: str) -> None:
    ptp_refs: Dict[int, int] = {}
    data_refs: Dict[int, int] = {}
    need_copy_state: Dict[int, bool] = {}
    seen_ptps: Dict[int, object] = {}
    config = kernel.config

    for task in live:
        for slot_index, slot in task.mm.tables.populated_slots():
            ptp = slot.ptp
            pfn = ptp.frame.pfn
            ptp_refs[pfn] = ptp_refs.get(pfn, 0) + 1
            previous = need_copy_state.get(pfn)
            if previous is not None and previous != slot.need_copy:
                _fail(site, f"PTP {pfn}: NEED_COPY inconsistent across "
                            f"sharers")
            need_copy_state[pfn] = slot.need_copy

            base_va = task.mm.tables.slot_base_va(slot_index)
            for index, pte in ptp.iter_valid():
                va = base_va + (index << PAGE_SHIFT)
                vma = task.mm.find_vma(va)
                if vma is None:
                    _fail(site, f"pid {task.pid}: valid PTE at {va:#x} "
                                f"outside every VMA")
                if Pte.is_global(pte):
                    if not config.share_tlb:
                        _fail(site, f"pid {task.pid}: global PTE at "
                                    f"{va:#x} with TLB sharing disabled")
                    if not vma.global_:
                        _fail(site, f"pid {task.pid}: global PTE at "
                                    f"{va:#x} inside non-global VMA")
                    if config.domain_support and slot.domain != DOMAIN_ZYGOTE:
                        _fail(site, f"pid {task.pid}: global PTE at "
                                    f"{va:#x} outside the zygote domain "
                                    f"(domain {slot.domain})")

            if pfn in seen_ptps:
                continue
            seen_ptps[pfn] = ptp

            writable_found = False
            for index, pte in ptp.iter_valid():
                frame_pfn = Pte.pfn(pte)
                try:
                    kernel.memory.frame(frame_pfn)
                except SimulationError:
                    _fail(site, f"PTE in PTP {pfn} references dead frame "
                                f"{frame_pfn}")
                data_refs[frame_pfn] = data_refs.get(frame_pfn, 0) + 1
                if Pte.is_writable(pte):
                    writable_found = True
            if slot.need_copy and writable_found and not (
                    config.x86_style_l1_write_protect):
                _fail(site, f"NEED_COPY PTP {pfn} holds a writable PTE "
                            f"(write-protect pass bypassed)")

    for pfn, expected in ptp_refs.items():
        frame = kernel.memory.frame(pfn)
        if frame.kind is not FrameKind.PTP:
            _fail(site, f"slot references non-PTP frame {pfn} "
                        f"({frame.kind.name})")
        if frame.mapcount != expected:
            _fail(site, f"PTP {pfn}: mapcount {frame.mapcount} != "
                        f"{expected} referencing slots")
        if expected > 1 and not need_copy_state[pfn]:
            _fail(site, f"PTP {pfn} shared by {expected} slots but not "
                        f"marked NEED_COPY")

    for pfn, expected in data_refs.items():
        frame = kernel.memory.frame(pfn)
        if frame is kernel.zero_frame:
            expected += 1  # Permanent kernel reference.
        if frame.mapcount != expected:
            _fail(site, f"frame {pfn} ({frame.kind.name}): mapcount "
                        f"{frame.mapcount} != {expected} mapping PTEs")


def _verify_dacrs(kernel, live, site: str) -> None:
    config = kernel.config
    confined = config.share_tlb and config.domain_support
    for task in live:
        access = task.dacr.access(DOMAIN_ZYGOTE)
        if task.is_zygote_like and confined:
            if access is not DomainAccess.CLIENT:
                _fail(site, f"pid {task.pid}: zygote-like task lacks "
                            f"client access to the zygote domain")
        elif access is not DomainAccess.NO_ACCESS:
            _fail(site, f"pid {task.pid} ({task.name}): unexpected DACR "
                        f"access {access.name} to the zygote domain")


def _verify_tlbs(kernel, live, site: str) -> None:
    asid_map = {task.asid: task for task in live}
    zygote_like = [task for task in live if task.is_zygote_like]
    for core in kernel.platform.cores:
        for name, tlb in (("main", core.main_tlb),
                          ("micro-i", core.micro_itlb),
                          ("micro-d", core.micro_dtlb)):
            where = f"core {core.core_id} {name} TLB"
            for entry in tlb.entries():
                _verify_tlb_entry(kernel, asid_map, zygote_like, entry,
                                  where, site)


def _verify_tlb_entry(kernel, asid_map, zygote_like, entry, where: str,
                      site: str) -> None:
    config = kernel.config
    if entry.domain == DOMAIN_KERNEL:
        # Kernel sections: linear map, always global.
        if not entry.global_:
            _fail(site, f"{where}: kernel-domain entry at vpn "
                        f"{entry.vpn:#x} is not global")
        if entry.pfn != KERNEL_PFN_BASE + entry.vpn:
            _fail(site, f"{where}: kernel entry at vpn {entry.vpn:#x} "
                        f"breaks the linear map (pfn {entry.pfn:#x})")
        return

    if entry.global_:
        if not config.share_tlb:
            _fail(site, f"{where}: global user entry at vpn "
                        f"{entry.vpn:#x} with TLB sharing disabled")
        if config.domain_support and entry.domain != DOMAIN_ZYGOTE:
            _fail(site, f"{where}: global user entry at vpn "
                        f"{entry.vpn:#x} outside the zygote domain "
                        f"(domain {entry.domain})")
        # Global entries legitimately outlive their filler (exit flushes
        # by ASID only); verify against any live zygote-like mapper, and
        # skip when none still maps the page.
        for task in zygote_like:
            if _entry_matches_tables(kernel, task, entry, where, site):
                return
        return

    task = asid_map.get(entry.asid)
    if task is None:
        _fail(site, f"{where}: entry for unknown ASID {entry.asid} at "
                    f"vpn {entry.vpn:#x} survived the exit flush")
    if not _entry_matches_tables(kernel, task, entry, where, site):
        _fail(site, f"{where}: stale entry at vpn {entry.vpn:#x} "
                    f"(pid {task.pid} has no valid PTE there)")


def _verify_policy(kernel, live, site: str) -> None:
    """The active translation policy's shadow state (family 3 + 6).

    Shadow translation entries a policy holds outside the TLBs (e.g.
    victima's parked victims) receive page-table flushes just like TLB
    entries, so they must satisfy the same coherence invariant; on top
    of that, each policy checks its own accounting (e.g. victima's
    park/revive ledger, replicated-pt's per-replica sync parity) via
    :meth:`TranslationPolicy.check_invariants`.
    """
    policy = kernel.policy
    if not policy.active:
        return
    asid_map = {task.asid: task for task in live}
    zygote_like = [task for task in live if task.is_zygote_like]
    where = f"policy {policy.name} shadow"
    for entry in policy.shadow_entries():
        _verify_tlb_entry(kernel, asid_map, zygote_like, entry, where,
                          site)
    for problem in policy.check_invariants():
        _fail(site, f"policy {policy.name}: {problem}")


def _entry_matches_tables(kernel, task, entry, where: str,
                          site: str) -> bool:
    """True when ``task``'s tables back ``entry``; raises on mismatch.

    Returns False only when the task has no valid PTE at the entry's
    base page (the caller decides whether that is legal).
    """
    va = entry.vpn << PAGE_SHIFT
    looked_up = task.mm.tables.lookup_pte(va)
    if looked_up is None:
        return False
    _, _, pte = looked_up
    if entry.pfn != Pte.pfn(pte):
        _fail(site, f"{where}: entry at vpn {entry.vpn:#x} maps pfn "
                    f"{entry.pfn}, tables map {Pte.pfn(pte)}")
    if entry.span_pages == 16 and not (pte & Pte.LARGE):
        _fail(site, f"{where}: large-page entry at vpn {entry.vpn:#x} "
                    f"backed by a small-page PTE")
    if entry.writable and not Pte.is_writable(pte):
        _fail(site, f"{where}: entry at vpn {entry.vpn:#x} grants write "
                    f"the PTE denies")
    if entry.global_ and not Pte.is_global(pte):
        _fail(site, f"{where}: entry at vpn {entry.vpn:#x} is global "
                    f"but the PTE is not")
    slot = task.mm.tables.slot(task.mm.tables.slot_index(va))
    if slot is not None and entry.domain != slot.domain:
        _fail(site, f"{where}: entry at vpn {entry.vpn:#x} carries "
                    f"domain {entry.domain}, slot has {slot.domain}")
    return True


# ---------------------------------------------------------------------------
# The pluggable runtime hook.
# ---------------------------------------------------------------------------

#: Minimum access events between engine run-boundary sweeps.
DEFAULT_RUN_GAP = 2000


class InvariantChecker:
    """Sweeps :func:`verify_kernel` at kernel step boundaries.

    ``every_events > 0`` additionally sweeps after every N access
    events (expensive; for pinpointing a violation between two
    operation boundaries).  ``run_gap_events`` rate-limits the engine
    run-boundary sweeps; operation boundaries (exec, fork, exit, the
    VM syscalls) are always swept.
    """

    def __init__(self, every_events: int = 0,
                 run_gap_events: int = DEFAULT_RUN_GAP) -> None:
        if every_events < 0:
            raise ValueError(
                f"every_events must be >= 0, got {every_events}"
            )
        if run_gap_events < 0:
            raise ValueError(
                f"run_gap_events must be >= 0, got {run_gap_events}"
            )
        self.every_events = every_events
        self.run_gap_events = run_gap_events
        #: Completed sweeps (each covering every invariant family).
        self.checks_run = 0
        #: Site label of the most recent sweep.
        self.last_site: Optional[str] = None
        self._events_pending = 0

    def after_op(self, kernel, site: str) -> None:
        """Sweep after a state-moving kernel operation."""
        self._sweep(kernel, site)

    def after_run(self, kernel) -> None:
        """Sweep at an engine run boundary (rate-limited)."""
        if self._events_pending >= self.run_gap_events:
            self._sweep(kernel, "run")

    def on_event(self, kernel) -> None:
        """Count one access event; sweep if ``every_events`` is due."""
        self._events_pending += 1
        if self.every_events and self._events_pending >= self.every_events:
            self._sweep(kernel, "event")

    def finalize(self, kernel) -> None:
        """No-op: the last operation boundary was already swept."""

    def _sweep(self, kernel, site: str) -> None:
        self._events_pending = 0
        self.checks_run += 1
        self.last_site = site
        verify_kernel(kernel, site)
