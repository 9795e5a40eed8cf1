"""Page-fault handling: demand paging, COW, unshare triggers, domain faults.

The handler resolves the three MMU fault kinds:

* **translation** — no valid PTE.  Demand-pages from the page cache
  (file-backed) or zero-fills (anonymous).  In the range of a *shared*
  PTP, a read/execute fault populates the PTE **in the shared PTP**, so
  the new translation is immediately visible to every sharer — this is
  the soft-page-fault elimination at the heart of the paper's launch
  speedup (Section 3.1.1).  A write fault first unshares the PTP
  (Section 3.1.2, case 1).
* **permission** — write to a write-protected PTE.  After unsharing (if
  needed), this is either a COW break (private file page, shared
  anonymous frame, zero page) or a pure write-enable.
* **domain** — a non-zygote process matched a global TLB entry in the
  zygote domain.  The handler flushes the matching entries on the
  faulting core and lets the access retry through the process's own
  page tables (Section 3.2.3).
"""

from repro.common.constants import pte_index
from repro.common.errors import SimulationError
from repro.hw.memory import FrameKind
from repro.hw.mmu import AccessType, FaultKind
from repro.hw.pagetable import Pte
from repro.trace import EventType

# Enum members are looked up on their class at Python speed; the
# per-fault tests compare against these module-level references.
_STORE = AccessType.STORE
_TRANSLATION = FaultKind.TRANSLATION
_PERMISSION = FaultKind.PERMISSION
_DOMAIN = FaultKind.DOMAIN


class SegmentationFault(SimulationError):
    """An access with no VMA or insufficient VMA permissions.

    Workloads in this reproduction never trigger these; one firing means
    a scenario bug, so it is an exception rather than a modelled signal.
    """


class FaultOutcome:
    """What handling one fault cost.

    ``overhead_cycles`` are the fixed kernel overhead cycles (trap, VMA
    lookup, PTE install, ...).  ``kernel_instructions`` are the kernel
    instructions the handler executed, run through the simulated I-cache
    by the execution engine: this is the kernel I-cache pollution that
    fault elimination removes.  One is built per fault, so it is a plain
    ``__slots__`` class rather than a dataclass.
    """

    __slots__ = ("kind", "overhead_cycles", "kernel_instructions")

    def __init__(self, kind: FaultKind, overhead_cycles: float = 0.0,
                 kernel_instructions: int = 0) -> None:
        self.kind = kind
        self.overhead_cycles = overhead_cycles
        self.kernel_instructions = kernel_instructions

    def charge(self, cycles: float) -> None:
        """Accumulate cycles into the outcome (the ``charge`` callback
        of PTP allocation and unsharing)."""
        self.overhead_cycles += cycles


class FaultHandler:
    """Bound to one kernel instance (see :class:`repro.kernel.Kernel`)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    # ------------------------------------------------------------------

    def handle(self, core, task, vaddr: int, access: AccessType,
               kind: FaultKind) -> FaultOutcome:
        """Dispatch one fault to its handler; returns the outcome."""
        if kind is _TRANSLATION:
            return self._handle_translation(core, task, vaddr, access)
        if kind is _PERMISSION:
            return self._handle_permission(core, task, vaddr, access)
        if kind is _DOMAIN:
            return self._handle_domain(core, task, vaddr)
        raise SimulationError(f"unknown fault kind {kind}")

    # ------------------------------------------------------------------
    # Translation faults: demand paging.
    # ------------------------------------------------------------------

    def _handle_translation(self, core, task, vaddr: int,
                            access: AccessType) -> FaultOutcome:
        kernel = self._kernel
        cost = kernel.cost
        counters = kernel.counter_scope(task)
        outcome = FaultOutcome(_TRANSLATION,
                               cost.soft_fault_overhead,
                               cost.fault_kernel_instructions)

        vma = task.mm.find_vma(vaddr)
        if vma is None:
            raise SegmentationFault(
                f"pid {task.pid} ({task.name}): no VMA at {vaddr:#x}"
            )
        if access is _STORE and not vma.prot.writable:
            raise SegmentationFault(
                f"pid {task.pid}: write to non-writable region at {vaddr:#x}"
            )

        slot_index = task.mm.tables.slot_index(vaddr)
        slot = task.mm.tables.slot(slot_index)

        # Write access in a shared PTP's range: unshare first
        # (Section 3.1.2, case 1).  Read/execute faults deliberately
        # populate the *shared* PTP instead.
        if (slot is not None and slot.ptp is not None and slot.need_copy
                and access is _STORE):
            kernel.ptmgr.unshare_slot(
                task, slot_index, "write-fault", counters,
                copy_frame_refs=kernel.take_frame_refs,
                charge=outcome.charge,
            )
            slot = task.mm.tables.slot(slot_index)

        if slot is None or slot.ptp is None:
            kernel.ptmgr.alloc_ptp(
                task.mm, slot_index, counters,
                domain=kernel.tlbshare.user_domain_for(task),
                charge=outcome.charge,
            )
            slot = task.mm.tables.slot(slot_index)

        index = pte_index(vaddr)
        if Pte.is_valid(slot.ptp.get(index)):
            # Another sharer populated this PTE since the access faulted;
            # nothing to do (the retry will hit).
            counters.bump("soft_faults")
            tracer = kernel.tracer
            if tracer.enabled:
                tracer.emit(EventType.SOFT_FAULT, pid=task.pid,
                            vaddr=vaddr, cause="already-populated")
            return outcome

        if vma.is_file_backed:
            self._populate_file_pte(task, core, vma, vaddr, access, slot,
                                    index, counters, outcome)
        else:
            self._populate_anon_pte(task, vma, access, slot, index, counters)
        if access is _STORE:
            slot.ptp.mark_dirty(index)
        return outcome

    def _populate_file_pte(self, task, core, vma, vaddr, access, slot,
                           index, counters, outcome) -> None:
        kernel = self._kernel
        counters.bump("file_backed_faults")
        if vma.use_large_pages and self._try_large_page(
                task, vma, vaddr, slot, index, counters, outcome):
            return
        file_page = vma.file_page_of(vaddr)
        frame, cold = kernel.page_cache.get_page(vma.file, file_page)
        if cold:
            counters.bump("cold_file_faults")
            outcome.overhead_cycles += kernel.cost.cold_fault_extra
        if access is _STORE and vma.flags.is_private:
            # Private write: COW straight away (read the cache page,
            # copy into a fresh anonymous frame).
            if not cold:
                counters.bump("cow_faults")
                tracer = kernel.tracer
                if tracer.enabled:
                    tracer.emit(EventType.COW_UNSHARE, pid=task.pid,
                                vaddr=vaddr, cause="private-write")
            outcome.overhead_cycles += kernel.cost.cow_fault_extra
            anon = kernel.memory.allocate(FrameKind.ANON)
            self._assert_private(slot, writable=True)
            kernel.install_pte(slot.ptp, index, anon, writable=True,
                               executable=vma.prot.executable)
            vma.anon_pages.add(vaddr >> 12)
            return
        if not cold:
            counters.bump("soft_faults")
            tracer = kernel.tracer
            if tracer.enabled:
                tracer.emit(EventType.SOFT_FAULT, pid=task.pid,
                            vaddr=vaddr, cause="warm-file")
        writable = vma.prot.writable and vma.flags.is_shared and (
            access is _STORE
        )
        if writable:
            self._assert_private(slot, writable=True)
        kernel.install_pte(
            slot.ptp, index, frame,
            writable=writable,
            executable=vma.prot.executable,
            global_=kernel.tlbshare.pte_global_bit(task, vma),
        )

    def _try_large_page(self, task, vma, vaddr, slot, index, counters,
                        outcome) -> bool:
        """Map a 64KB large page: sixteen aligned level-2 entries.

        Section 2.3.3: large pages coexist with PTP sharing — the
        sixteen entries live in an ordinary (possibly shared) PTP and
        the translations they publish are identical for every sharer.
        Falls back to 4KB mapping (returns False) when the chunk does
        not fit the region or the page cache already holds fragmented
        frames for it.
        """
        kernel = self._kernel
        chunk_base_va = vaddr & ~0xFFFF
        if chunk_base_va < vma.start or chunk_base_va + 0x10000 > vma.end:
            return False
        first_file_page = vma.file_page_of(chunk_base_va)
        frames, cold = kernel.page_cache.get_chunk(vma.file,
                                                   first_file_page, 16)
        if not frames:
            return False
        if cold:
            counters.bump("cold_file_faults")
            outcome.overhead_cycles += kernel.cost.cold_fault_extra
        else:
            counters.bump("soft_faults")
            tracer = kernel.tracer
            if tracer.enabled:
                tracer.emit(EventType.SOFT_FAULT, pid=task.pid,
                            vaddr=vaddr, cause="warm-large-page")
        base_index = index & ~0xF
        global_ = kernel.tlbshare.pte_global_bit(task, vma)
        for offset, frame in enumerate(frames):
            if Pte.is_valid(slot.ptp.get(base_index + offset)):
                raise SimulationError(
                    "large-page chunk partially populated"
                )
            kernel.install_pte(
                slot.ptp, base_index + offset, frame,
                writable=False, executable=vma.prot.executable,
                global_=global_, large=True,
            )
        return True

    def _populate_anon_pte(self, task, vma, access, slot, index,
                           counters) -> None:
        kernel = self._kernel
        counters.bump("anon_faults")
        if access is _STORE:
            frame = kernel.memory.allocate(FrameKind.ANON)
            self._assert_private(slot, writable=True)
            kernel.install_pte(slot.ptp, index, frame, writable=True)
        else:
            # Read of an untouched anonymous page: map the shared zero
            # page read-only; a later write COWs it.
            kernel.install_pte(slot.ptp, index, kernel.zero_frame,
                               writable=False)

    # ------------------------------------------------------------------
    # Permission faults: COW / write enable.
    # ------------------------------------------------------------------

    def _handle_permission(self, core, task, vaddr: int,
                           access: AccessType) -> FaultOutcome:
        kernel = self._kernel
        cost = kernel.cost
        counters = kernel.counter_scope(task)
        outcome = FaultOutcome(_PERMISSION,
                               cost.soft_fault_overhead,
                               cost.fault_kernel_instructions)

        if access is not _STORE:
            raise SimulationError(
                f"unexpected {access} permission fault at {vaddr:#x}"
            )
        vma = task.mm.find_vma(vaddr)
        if vma is None or not vma.prot.writable:
            raise SegmentationFault(
                f"pid {task.pid}: write to read-only region at {vaddr:#x}"
            )

        slot_index = task.mm.tables.slot_index(vaddr)
        slot = task.mm.tables.slot(slot_index)
        if slot is None or slot.ptp is None:
            raise SimulationError("permission fault with no page table")

        if slot.need_copy:
            kernel.ptmgr.unshare_slot(
                task, slot_index, "write-fault", counters,
                copy_frame_refs=kernel.take_frame_refs,
                charge=outcome.charge,
            )
            slot = task.mm.tables.slot(slot_index)

        index = pte_index(vaddr)
        pte = slot.ptp.get(index)
        if not Pte.is_valid(pte):
            # The referenced-only unshare ablation may drop unreferenced
            # PTEs; fall back to demand paging.
            translation = self._handle_translation(core, task, vaddr, access)
            outcome.overhead_cycles += translation.overhead_cycles
            outcome.kernel_instructions += translation.kernel_instructions
            return outcome

        old_frame = kernel.memory.frame(Pte.pfn(pte))
        needs_cow = (
            old_frame is kernel.zero_frame
            or (old_frame.kind is FrameKind.FILE and vma.flags.is_private)
            or (old_frame.kind is FrameKind.ANON and old_frame.mapcount > 1)
        )
        if needs_cow:
            counters.bump("cow_faults")
            tracer = kernel.tracer
            if tracer.enabled:
                tracer.emit(EventType.COW_UNSHARE, pid=task.pid,
                            vaddr=vaddr, cause="cow-break")
            outcome.overhead_cycles += cost.cow_fault_extra
            self._replace_pte(slot, index, vma)
            if vma.is_file_backed:
                vma.anon_pages.add(vaddr >> 12)
        else:
            # Sole-owner anonymous frame or a MAP_SHARED file page:
            # simply enable the write bit (in place; the frame keeps its
            # existing mapping reference).
            counters.bump("write_enable_faults")
            self._assert_private(slot, writable=True)
            slot.ptp.set(index, Pte.make(
                old_frame.pfn, writable=True,
                executable=vma.prot.executable,
            ))
        slot.ptp.mark_dirty(index)
        # The faulting core (at least) holds a stale read-only entry.
        kernel.platform.flush_tlb_va_all_cores(vaddr >> 12)
        return outcome

    def _replace_pte(self, slot, index, vma) -> None:
        """COW: swap the mapped frame for a fresh anonymous copy."""
        kernel = self._kernel
        self._assert_private(slot, writable=True)
        old = slot.ptp.clear(index)
        old_frame = kernel.memory.frame(Pte.pfn(old))
        kernel.put_frame(old_frame)
        anon = kernel.memory.allocate(FrameKind.ANON)
        kernel.install_pte(slot.ptp, index, anon, writable=True,
                           executable=vma.prot.executable)

    # ------------------------------------------------------------------
    # Domain faults: shared-TLB confinement.
    # ------------------------------------------------------------------

    def _handle_domain(self, core, task, vaddr: int) -> FaultOutcome:
        kernel = self._kernel
        counters = kernel.counter_scope(task)
        counters.bump("domain_faults")
        tracer = kernel.tracer
        if tracer.enabled:
            tracer.emit(EventType.DOMAIN_FAULT, pid=task.pid, vaddr=vaddr)
        # Flush every TLB entry matching the faulting address on the
        # faulting processor; the retried access misses and walks the
        # process's own page tables (Section 3.2.3).
        core.flush_tlb_va(vaddr >> 12)
        return FaultOutcome(_DOMAIN,
                            kernel.cost.domain_fault_overhead,
                            kernel.cost.fault_kernel_instructions // 3)

    # ------------------------------------------------------------------

    @staticmethod
    def _assert_private(slot, writable: bool) -> None:
        if writable and slot.need_copy:
            raise SimulationError(
                "attempted to install a writable PTE into a shared PTP"
            )
