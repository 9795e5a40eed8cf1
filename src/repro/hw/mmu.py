"""The MMU translation pipeline.

Every memory access flows through :meth:`Mmu.translate`:

1. probe the relevant micro-TLB (instruction or data side);
2. on a micro miss, probe the unified main TLB;
3. on a main-TLB miss, perform a hardware two-level table walk — each
   walk reads the level-1 descriptor and the level-2 PTE *through the
   cache hierarchy* (the walker allocates PTE lines into L2 and L1-D on
   ARMv7, which is the cache-pollution effect the paper targets);
4. check the running task's DACR against the matched entry's domain
   (no access -> *domain fault*, the hook the paper's shared-TLB design
   relies on);
5. for client-access domains, check the permission bits
   (write to a read-only page -> *permission fault*, which drives COW
   and PTP unsharing).

Faults are returned as values — they are part of normal operation and
are resolved by the kernel's fault handlers, after which the access is
retried.

Kernel-space addresses translate through shared global section mappings
(1MB granularity, kernel domain), matching how Linux maps the kernel on
ARM; they occupy main-TLB slots like any other entry.
"""

import enum
from typing import Optional

from repro.common.events import AccessType
from repro.common.constants import (
    DOMAIN_KERNEL,
    KERNEL_SPACE_START,
    PAGE_SHIFT,
    SECTION_SHIFT,
    pte_index,
)
from repro.common.cost import CostModel
from repro.hw.domain import Dacr, DomainAccess
from repro.hw.pagetable import Pte
from repro.hw.tlb import TlbEntry
from repro.policy import NULL_POLICY
from repro.trace import NULL_TRACER, EventType

#: Synthetic PFN base for kernel text/data; far above any frame the
#: allocator will hand out, so kernel lines never alias user lines.
KERNEL_PFN_BASE = 1 << 24

PAGES_PER_SECTION = 1 << (SECTION_SHIFT - PAGE_SHIFT)  # 256


class FaultKind(enum.Enum):
    """Abort causes, as the FSR would report them."""

    TRANSLATION = "translation"  # No valid PTE: page fault.
    PERMISSION = "permission"  # AP bits deny the access: COW/unshare.
    DOMAIN = "domain"  # DACR says no access: shared-TLB confinement.


# Enum members are looked up on their class at Python speed; the hot
# path compares against these module-level references instead.
_IFETCH = AccessType.IFETCH
_STORE = AccessType.STORE
_NO_ACCESS = DomainAccess.NO_ACCESS
_CLIENT = DomainAccess.CLIENT


class MmuResult:
    """Outcome of one translation attempt.

    One is built per translation, so it is a plain ``__slots__`` class
    rather than a dataclass.  ``translation_stall`` holds the stall
    cycles attributable to translation: the micro-miss penalty, the walk
    base cost, and the walk's PTE reads through the caches.
    """

    __slots__ = ("vaddr", "access", "fault", "entry", "micro_hit",
                 "main_hit", "walked", "translation_stall")

    def __init__(self, vaddr: int, access: AccessType,
                 fault: Optional[FaultKind] = None,
                 entry: Optional[TlbEntry] = None, micro_hit: bool = False,
                 main_hit: bool = False, walked: bool = False,
                 translation_stall: int = 0) -> None:
        self.vaddr = vaddr
        self.access = access
        self.fault = fault
        self.entry = entry
        self.micro_hit = micro_hit
        self.main_hit = main_hit
        self.walked = walked
        self.translation_stall = translation_stall

    @property
    def ok(self) -> bool:
        """True when the translation completed without a fault."""
        return self.fault is None


class Mmu:
    """Per-platform MMU logic; per-core state lives in :class:`Core`."""

    #: Event tracer; the kernel overwrites this when tracing is enabled.
    tracer = NULL_TRACER
    #: Translation policy; the kernel overwrites this when one is
    #: configured.  The policy may resolve a main-TLB miss before the
    #: walk, redirect the level-2 PTE read, and observe fills/evictions.
    policy = NULL_POLICY

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost

    def translate(self, core, task, vaddr: int, access: AccessType) -> MmuResult:
        """Translate one access for ``task`` running on ``core``.

        ``task`` must expose ``asid``, ``dacr`` and ``mm`` (with ``mm``
        exposing ``tables`` and ``pgd_entry_paddr``); ``core`` provides
        the TLBs and cache hierarchy.
        """
        if vaddr >= KERNEL_SPACE_START:
            return self._translate_kernel(core, task, vaddr, access)
        return self._translate_user(core, task, vaddr, access)

    # -- user space -------------------------------------------------------

    def _translate_user(self, core, task, vaddr: int,
                        access: AccessType) -> MmuResult:
        result = MmuResult(vaddr, access)
        vpn = vaddr >> PAGE_SHIFT
        micro = core.micro_itlb if access is _IFETCH else core.micro_dtlb

        entry = micro.lookup(vpn)
        if entry is not None:
            result.micro_hit = True
        else:
            result.translation_stall += self.cost.micro_tlb_miss
            entry = core.main_tlb.lookup(vpn, task.asid)
            if entry is not None:
                result.main_hit = True
                micro.insert(entry, key_vpn=vpn)
            else:
                policy = self.policy
                if policy.active:
                    # The policy gets first crack at the miss (e.g.
                    # Victima revives a parked victim at L2-hit cost).
                    entry, probe_stall = policy.tlb_miss_probe(
                        core, task, vpn)
                    result.translation_stall += probe_stall
                if entry is not None:
                    result.main_hit = True
                    micro.insert(entry, key_vpn=vpn)
                else:
                    entry, walk_stall = self._walk(core, task, vaddr)
                    result.walked = True
                    result.translation_stall += walk_stall
                    if entry is None:
                        result.fault = FaultKind.TRANSLATION
                        return result
                    victim = core.main_tlb.insert(entry)
                    if policy.active:
                        if victim is not None:
                            policy.on_tlb_evict(core, victim)
                        policy.on_tlb_fill(core, task, entry)
                    micro.insert(entry, key_vpn=vpn)
                    tracer = self.tracer
                    if tracer.enabled:
                        tracer.emit(EventType.TLB_FILL, pid=task.pid,
                                    vaddr=vaddr, cause="user-walk",
                                    value=entry.span_pages)

        result.entry = entry
        return self._check_entry(task.dacr, entry, access, result)

    def _walk(self, core, task, vaddr: int):
        """Hardware table walk; returns ``(entry_or_None, stall_cycles)``."""
        stall = self.cost.walk_base
        tables = task.mm.tables
        slot_index = tables.slot_index(vaddr)
        # Level-1 descriptor read (from the pgd, through the caches).
        stall += core.caches.walk_read(task.mm.pgd_entry_paddr(slot_index))
        slot = tables.slot(slot_index)
        if slot is None or slot.ptp is None:
            return None, stall
        ptp = slot.ptp
        # Level-2 PTE read.  With shared PTPs this physical address is
        # identical across all sharers; with private tables it is not.
        index = pte_index(vaddr)
        pte_paddr = ptp.pte_paddr(index)
        policy = self.policy
        if policy.active:
            # e.g. replicated-pt redirects the read to a node-local
            # replica of the PTE, changing which cache line it touches.
            pte_paddr = policy.pte_walk_paddr(
                core, task, ptp, index, pte_paddr)
        stall += core.caches.walk_read(pte_paddr)
        # The walker decodes the PTE word's bits itself, as hardware
        # does, rather than through the Pte accessors.
        pte = ptp.hw[index]
        if not pte & Pte.VALID:
            return None, stall
        # The walk sets the referenced bit (Linux/ARM emulates this in
        # the shadow table; we fold it into the walk).
        ptp.mark_young(index)
        vpn = vaddr >> PAGE_SHIFT
        pfn = Pte.pfn(pte)
        if pte & Pte.LARGE:
            # A 64KB entry is indexed by its base; the sixteen frames
            # are physically contiguous, so the base PFN is derived
            # from the accessed page's PFN.
            pfn -= vpn & 0xF
            vpn &= ~0xF
            span_pages = 16
        else:
            span_pages = 1
        entry = TlbEntry(vpn, task.asid, pfn, bool(pte & Pte.WRITABLE),
                         bool(pte & Pte.GLOBAL), slot.domain, span_pages)
        return entry, stall

    @staticmethod
    def _check_entry(dacr: Dacr, entry: TlbEntry, access: AccessType,
                     result: MmuResult) -> MmuResult:
        grant = dacr.access(entry.domain)
        if grant == _NO_ACCESS:
            result.fault = FaultKind.DOMAIN
            return result
        if grant == _CLIENT:
            if access is _STORE and not entry.writable:
                result.fault = FaultKind.PERMISSION
                return result
        return result

    # -- kernel space -------------------------------------------------------

    def _translate_kernel(self, core, task, vaddr: int,
                          access: AccessType) -> MmuResult:
        result = MmuResult(vaddr, access)
        vpn = vaddr >> PAGE_SHIFT
        micro = core.micro_itlb if access is _IFETCH else core.micro_dtlb

        entry = micro.lookup(vpn)
        if entry is not None:
            result.micro_hit = True
        else:
            result.translation_stall += self.cost.micro_tlb_miss
            entry = core.main_tlb.lookup(vpn, task.asid)
            if entry is not None:
                result.main_hit = True
            else:
                # Section walk: a single level-1 read; the descriptor
                # lives in the shared kernel master table.
                result.walked = True
                result.translation_stall += self.cost.walk_base
                section_base_vpn = (vaddr >> SECTION_SHIFT) << (
                    SECTION_SHIFT - PAGE_SHIFT
                )
                entry = TlbEntry(
                    vpn=section_base_vpn,
                    asid=task.asid,
                    pfn=KERNEL_PFN_BASE + section_base_vpn,
                    writable=True,
                    global_=True,
                    domain=DOMAIN_KERNEL,
                    span_pages=PAGES_PER_SECTION,
                )
                victim = core.main_tlb.insert(entry)
                policy = self.policy
                if policy.active and victim is not None:
                    policy.on_tlb_evict(core, victim)
                tracer = self.tracer
                if tracer.enabled:
                    tracer.emit(EventType.TLB_FILL, pid=task.pid,
                                vaddr=vaddr, cause="kernel-section",
                                value=entry.span_pages)
            micro.insert(entry, key_vpn=vpn)

        result.entry = entry
        # Kernel accesses run in a client-access kernel domain for every
        # task; no user-reachable fault cases here.
        return result

    @staticmethod
    def kernel_paddr(vaddr: int) -> int:
        """Physical address of a kernel-space virtual address.

        Consistent with the PFNs placed in kernel section TLB entries:
        ``pfn = KERNEL_PFN_BASE + vpn``.
        """
        page_offset = vaddr & ((1 << PAGE_SHIFT) - 1)
        return (
            (KERNEL_PFN_BASE + (vaddr >> PAGE_SHIFT)) << PAGE_SHIFT
        ) + page_offset
