"""Fork, under the paper's three page-table policies.

* **stock** — the baseline Linux/Android behaviour (Section 4.2.1):
  PTEs that page faults can refill (file-backed mappings) are skipped;
  anonymous PTEs (and file pages already COW-ed to anonymous frames)
  are traversed and copied, with private writable entries
  write-protected in both parent and child for COW.
* **copy-pte** — Table 4's comparison point: additionally traverses and
  copies the PTEs of zygote-preloaded shared code at fork time.
* **shared-ptp** — the paper's contribution: level-2 PTPs are shared
  between parent and child via :class:`repro.core.ptshare`, with stock
  handling only for the slots that cannot be shared (the stack).

The function *performs* each operation against the simulated page
tables and charges calibrated per-operation costs, so Table 4's columns
(cycles, PTPs allocated, shared PTPs, PTEs copied) all come out of one
mechanism rather than a formula.
"""

from dataclasses import dataclass
from typing import Optional, Set

from repro.common.constants import PAGE_SHIFT, PTES_PER_PTP
from repro.hw.pagetable import Pte
from repro.kernel.config import ForkPolicy
from repro.kernel.task import Task
from repro.trace import EventType


@dataclass
class ForkReport:
    """Fork-time metrics, matching Table 4's columns."""

    cycles: float = 0.0
    child_ptps_allocated: int = 0
    slots_shared: int = 0
    ptes_copied: int = 0
    ptes_write_protected: int = 0


def do_fork(kernel, parent: Task, name: str) -> "tuple[Task, ForkReport]":
    """Fork ``parent``; returns ``(child, report)``.

    Fork cycles are charged to the parent (the caller of fork(2)).
    """
    config = kernel.config
    cost = kernel.cost
    report = ForkReport(cycles=cost.fork_base)

    child = kernel.allocate_task(name=name, parent=parent)
    kernel.tlbshare.on_fork(parent, child)
    counters = kernel.counter_scope(child)
    kernel.counter_scope(parent).bump("forks")
    tracer = kernel.tracer
    if tracer.enabled:
        tracer.emit(EventType.FORK, pid=parent.pid,
                    cause=config.fork_policy.value, value=child.pid)

    # Clone the VMA list (the child sees the same regions; COW semantics
    # are enforced through PTE write protection below).
    child.mm.mmap_hint = parent.mm.mmap_hint
    for vma in parent.mm.vmas():
        report.cycles += cost.fork_per_vma
        child.mm.insert_vma(vma.clone())

    if config.fork_policy is ForkPolicy.SHARED_PTP:
        outcome = kernel.ptmgr.share_at_fork(parent, child, counters)
        report.cycles += outcome.cycles
        report.slots_shared = outcome.slots_shared
        report.ptes_write_protected = outcome.ptes_write_protected
        restrict = set(outcome.fallback_slots)
        copied = _stock_copy(kernel, parent, child, counters, report,
                             restrict_slots=restrict,
                             include_preloaded_code=False)
    else:
        copied = _stock_copy(
            kernel, parent, child, counters, report,
            restrict_slots=None,
            include_preloaded_code=config.fork_policy is ForkPolicy.COPY_PTE,
        )
    report.ptes_copied = copied
    report.child_ptps_allocated = child.counters.ptps_allocated

    parent.stats.charge("fork_cycles", report.cycles)
    return child, report


def _stock_copy(kernel, parent: Task, child: Task, counters, report,
                restrict_slots: Optional[Set[int]],
                include_preloaded_code: bool) -> int:
    """Stock fork's PTE copy pass.  Returns the number of PTEs copied.

    ``restrict_slots`` limits copying to the given level-1 slots (used
    by the shared-PTP policy for its non-shareable fallback slots).
    Traversal is charged for every page of a walked range, but the host
    visits only the populated PTPs (:meth:`AddressSpaceTables.walk_valid`).
    """
    cost = kernel.cost
    tables = parent.mm.tables
    copied_total = 0
    parent_wp_needed = False
    # The child PTP of the slot being copied: the walk is in address
    # order, so it changes only when the walk enters a new slot.
    child_index = child_ptp = None

    for vma in parent.mm.vmas():
        if vma.flags.is_anonymous or (
                include_preloaded_code and vma.zygote_preloaded
                and vma.prot.executable):
            # Anonymous memory; under copy-PTE also the zygote-preloaded
            # shared code, copying whatever the parent has populated.
            vpns = vma.page_range()
            pages = _pages_in(vpns.start, vpns.stop, restrict_slots)
            entries = tables.walk_valid(vpns.start, vpns.stop,
                                        restrict_slots)
        elif vma.anon_pages:
            # File-backed mapping holding COW-ed anonymous pages: only
            # those PTEs cannot be refilled by faults.
            vpns = sorted(vma.anon_pages)
            if restrict_slots is not None:
                vpns = [vpn for vpn in vpns
                        if vpn // PTES_PER_PTP in restrict_slots]
            pages = len(vpns)
            entries = _lookup_each(tables, vpns)
        else:
            # Pure file-backed mapping: skipped, faults refill it.
            continue

        # Under shared-PTP, only the non-shareable slots are walked at
        # all; shared ranges are never traversed.
        report.cycles += pages * cost.fork_traverse_per_page
        private_writable = vma.is_private_writable
        for slot_index, parent_ptp, index in entries:
            pte = parent_ptp.hw[index]
            if private_writable and pte & Pte.WRITABLE:
                pte = Pte.write_protect(pte)
                parent_ptp.set(index, pte)
                parent_wp_needed = True

            if slot_index != child_index:
                child_index = slot_index
                child_slot = child.mm.tables.slot(slot_index)
                if child_slot is not None and child_slot.ptp is not None:
                    child_ptp = child_slot.ptp
                else:
                    child_ptp = kernel.ptmgr.alloc_ptp(
                        child.mm, slot_index, counters,
                        domain=kernel.tlbshare.user_domain_for(child),
                        charge=lambda cycles: _charge_report(report, cycles),
                    )
            child_ptp.set(index, pte)
            child_ptp.shadow[index] = parent_ptp.shadow[index]
            kernel.memory.frame(Pte.pfn(pte)).get()
            report.cycles += cost.pte_copy
            copied_total += 1

    counters.bump("ptes_copied_fork", copied_total)
    if parent_wp_needed:
        # Parent TLBs may cache the old writable entries.
        kernel.flush_task_tlbs(parent)
        counters.bump("tlb_shootdowns")
        report.cycles += cost.tlb_flush_cost
    return copied_total


def _pages_in(first_vpn: int, end_vpn: int,
              slots: Optional[Set[int]]) -> int:
    """Pages of ``[first_vpn, end_vpn)`` inside ``slots`` (all if None)."""
    if slots is None:
        return end_vpn - first_vpn
    pages = 0
    for slot_index in slots:
        base = slot_index * PTES_PER_PTP
        pages += max(0, min(end_vpn, base + PTES_PER_PTP)
                     - max(first_vpn, base))
    return pages


def _lookup_each(tables, vpns):
    """``(slot_index, ptp, index)`` of each valid PTE among ``vpns``."""
    for vpn in vpns:
        looked_up = tables.lookup_pte(vpn << PAGE_SHIFT)
        if looked_up is not None:
            parent_ptp, index, _ = looked_up
            yield vpn // PTES_PER_PTP, parent_ptp, index


def _charge_report(report: ForkReport, cycles: float) -> None:
    report.cycles += cycles
