"""ARM/Linux two-level page tables.

The hardware defines a 4096-entry level-1 table (one entry per 1MB) and
256-entry level-2 tables (one entry per 4KB page).  Linux on ARM manages
level-1 entries and level-2 tables in pairs: a single 4KB physical page
holds two hardware level-2 tables plus two parallel "Linux" shadow tables
carrying the referenced/dirty bits the hardware lacks (paper, Figure 5).
That 4KB unit — a *page table page* (PTP) covering 2MB of virtual address
space with 512 PTEs — is the granularity at which the paper shares
translation structures, and it is the unit this module models directly.

Level-1 state is kept per 2MB slot as an :class:`L1Slot`: a pointer to
the PTP, the paper's new ``NEED_COPY`` flag (a spare bit in the level-1
PTE marking the PTP as shared copy-on-write), and the ARM domain ID that
level-2 entries inherit.
"""

from dataclasses import dataclass, field
from typing import Container, Dict, Iterator, List, Optional, Tuple

from repro.common.constants import (
    DOMAIN_USER,
    PTES_PER_PTP,
    PTP_SHIFT,
    PTP_SLOTS,
    pte_index,
    ptp_index,
)
from repro.common.errors import AddressError, SimulationError
from repro.hw.memory import Frame


class Pte:
    """Bit-level encoding helpers for a (simulated) hardware PTE.

    A PTE is a plain ``int`` so page tables stay compact; this class is a
    namespace of constructors and accessors, mirroring how real kernels
    manipulate PTEs through macros.

    Layout::

        bit 0      VALID
        bit 1      WRITABLE   (AP bits allow user write)
        bit 2      USER       (user-mode accessible)
        bit 3      GLOBAL     (inverse of ARM nG; ignore ASID on match)
        bit 4      EXEC       (XN inverse)
        bit 5      LARGE      (entry is 1/16th of a 64KB large page)
        bits 8+    PFN
    """

    VALID = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    GLOBAL = 1 << 3
    EXEC = 1 << 4
    LARGE = 1 << 5
    _PFN_SHIFT = 8

    # Shadow ("Linux") PTE flags, kept in the parallel software table.
    SHADOW_YOUNG = 1 << 0  # Referenced.
    SHADOW_DIRTY = 1 << 1

    @staticmethod
    def make(
        pfn: int,
        writable: bool = False,
        user: bool = True,
        global_: bool = False,
        executable: bool = False,
        large: bool = False,
    ) -> int:
        """Encode a PTE from its fields."""
        value = Pte.VALID | (pfn << Pte._PFN_SHIFT)
        if writable:
            value |= Pte.WRITABLE
        if user:
            value |= Pte.USER
        if global_:
            value |= Pte.GLOBAL
        if executable:
            value |= Pte.EXEC
        if large:
            value |= Pte.LARGE
        return value

    @staticmethod
    def pfn(pte: int) -> int:
        """Physical frame number held in a PTE."""
        return pte >> Pte._PFN_SHIFT

    @staticmethod
    def is_valid(pte: int) -> bool:
        """True when the PTE's valid bit is set."""
        return bool(pte & Pte.VALID)

    @staticmethod
    def is_writable(pte: int) -> bool:
        """True when the PTE permits user writes."""
        return bool(pte & Pte.WRITABLE)

    @staticmethod
    def is_global(pte: int) -> bool:
        """True when the PTE's global bit is set."""
        return bool(pte & Pte.GLOBAL)

    @staticmethod
    def is_executable(pte: int) -> bool:
        """True when the PTE permits instruction fetch."""
        return bool(pte & Pte.EXEC)

    @staticmethod
    def write_protect(pte: int) -> int:
        """The PTE with its write permission cleared."""
        return pte & ~Pte.WRITABLE


@dataclass
class PageTablePage:
    """One 4KB page-table page covering 2MB of virtual address space."""

    frame: Frame
    #: Base VA of the 2MB range this PTP covers (diagnostics only — a
    #: shared PTP is installed at the same VA in every sharer).
    base_va: int
    hw: List[int] = field(default_factory=lambda: [0] * PTES_PER_PTP)
    shadow: List[int] = field(default_factory=lambda: [0] * PTES_PER_PTP)
    valid_count: int = 0
    #: True once the share-time write-protect pass has run (Section
    #: 3.1.1: every writable PTE must be write-protected before the PTP
    #: can be shared).
    write_protected: bool = False

    @property
    def sharer_count(self) -> int:
        """Number of address spaces referencing this PTP (``mapcount``)."""
        return self.frame.mapcount

    def get(self, index: int) -> int:
        """The hardware PTE at one index (0 when invalid)."""
        return self.hw[index]

    def set(self, index: int, pte: int) -> None:
        """Install a valid PTE at one index."""
        if not pte & Pte.VALID:
            raise SimulationError("use clear() to invalidate a PTE")
        hw = self.hw
        if not hw[index] & Pte.VALID:
            self.valid_count += 1
        hw[index] = pte
        self.shadow[index] = Pte.SHADOW_YOUNG

    def clear(self, index: int) -> int:
        """Invalidate one PTE; returns the old value."""
        old = self.hw[index]
        if old & Pte.VALID:
            self.valid_count -= 1
        self.hw[index] = 0
        self.shadow[index] = 0
        return old

    def mark_young(self, index: int) -> None:
        """Set the shadow referenced bit."""
        self.shadow[index] |= Pte.SHADOW_YOUNG

    def mark_dirty(self, index: int) -> None:
        """Set the shadow dirty (and referenced) bits."""
        self.shadow[index] |= Pte.SHADOW_DIRTY | Pte.SHADOW_YOUNG

    def is_young(self, index: int) -> bool:
        """True when the shadow referenced bit is set."""
        return bool(self.shadow[index] & Pte.SHADOW_YOUNG)

    def pte_paddr(self, index: int) -> int:
        """Physical address of the hardware PTE word.

        This is what a table walk reads through the cache hierarchy; two
        processes sharing a PTP therefore share the PTE's cache line,
        while private copies occupy distinct lines (paper, Figure 1).
        """
        return self.frame.paddr + index * 4

    def iter_valid(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(index, pte)`` for every valid entry."""
        for index, pte in enumerate(self.hw):
            if pte & Pte.VALID:
                yield index, pte

    def write_protect_all(self) -> int:
        """Write-protect every writable PTE; returns how many changed."""
        changed = 0
        for index, pte in enumerate(self.hw):
            if (pte & Pte.VALID) and (pte & Pte.WRITABLE):
                self.hw[index] = Pte.write_protect(pte)
                changed += 1
        self.write_protected = True
        return changed

    def age_references(self) -> int:
        """Clear every referenced bit (the kernel's periodic aging).

        Done when a PTP is first shared, so "referenced" thereafter
        means *referenced since the share* — which is what the Section
        3.1.3 referenced-only unshare-copy alternative needs to be
        meaningful.  Returns the number of bits cleared.
        """
        cleared = 0
        for index in range(len(self.shadow)):
            if self.shadow[index] & Pte.SHADOW_YOUNG:
                self.shadow[index] &= ~Pte.SHADOW_YOUNG
                cleared += 1
        return cleared

    def copy_entries_to(
        self, target: "PageTablePage", only_referenced: bool = False
    ) -> int:
        """Copy valid PTEs into ``target``; returns the number copied.

        ``only_referenced`` implements the paper's suggested optimization
        (Section 3.1.3, "Whether Page Table Entries Should Be Copied Upon
        Unsharing"): copy only entries whose referenced bit is set.
        """
        copied = 0
        for index, pte in self.iter_valid():
            if only_referenced and not self.is_young(index):
                continue
            target.set(index, pte)
            target.shadow[index] = self.shadow[index]
            copied += 1
        return copied


@dataclass
class L1Slot:
    """Per-2MB level-1 state: PTP pointer, NEED_COPY flag, domain ID."""

    ptp: Optional[PageTablePage] = None
    need_copy: bool = False
    domain: int = DOMAIN_USER


class AddressSpaceTables:
    """The user-space page-table tree of one address space.

    Slots are kept sparsely (most of the 2048 2MB slots of a 32-bit
    address space are empty).  Kernel-space translations are modelled by
    the MMU as shared global section mappings and never appear here.
    """

    def __init__(self) -> None:
        self._slots: Dict[int, L1Slot] = {}

    def slot_index(self, vaddr: int) -> int:
        """Level-1 slot index covering a virtual address."""
        index = ptp_index(vaddr)
        if not 0 <= index < PTP_SLOTS:
            raise AddressError(f"address {vaddr:#x} outside 32-bit space")
        return index

    def slot(self, index: int) -> Optional[L1Slot]:
        """The level-1 slot at an index, if populated."""
        return self._slots.get(index)

    def slot_for(self, vaddr: int) -> Optional[L1Slot]:
        """The level-1 slot covering a virtual address."""
        return self._slots.get(self.slot_index(vaddr))

    def install(
        self,
        index: int,
        ptp: PageTablePage,
        need_copy: bool = False,
        domain: int = DOMAIN_USER,
    ) -> L1Slot:
        """Point a level-1 slot at a PTP, taking a mapping reference."""
        existing = self._slots.get(index)
        if existing is not None and existing.ptp is not None:
            raise SimulationError(f"slot {index} already populated")
        ptp.frame.get()
        slot = L1Slot(ptp=ptp, need_copy=need_copy, domain=domain)
        self._slots[index] = slot
        return slot

    def detach(self, index: int) -> PageTablePage:
        """Clear a level-1 slot, dropping the PTP reference.

        The caller decides whether the PTP frame should be freed (it must
        not be while other address spaces still reference it).
        """
        slot = self._slots.get(index)
        if slot is None or slot.ptp is None:
            raise SimulationError(f"slot {index} not populated")
        ptp = slot.ptp
        ptp.frame.put()
        del self._slots[index]
        return ptp

    def lookup_pte(self, vaddr: int) -> Optional[Tuple[PageTablePage, int, int]]:
        """Resolve ``vaddr`` to ``(ptp, pte_index, pte)`` if mapped."""
        slot = self.slot_for(vaddr)
        if slot is None or slot.ptp is None:
            return None
        index = pte_index(vaddr)
        pte = slot.ptp.get(index)
        if not Pte.is_valid(pte):
            return None
        return slot.ptp, index, pte

    def walk_valid(
        self, first_vpn: int, end_vpn: int,
        slots: Optional[Container[int]] = None,
    ) -> Iterator[Tuple[int, PageTablePage, int]]:
        """Yield ``(slot_index, ptp, index)`` for each valid PTE mapping a
        page in ``[first_vpn, end_vpn)``, in ascending page order.

        Like Linux's ``copy_page_range``, the walk skips the level-1
        slots that hold no PTP and scans only the PTE lists of the rest,
        so its cost follows the populated tables, not the range.
        ``slots`` limits the walk to those level-1 slot indices.  Each
        entry is read as the walk reaches it, so a caller may rewrite or
        clear the entry it was just handed.
        """
        first_slot = first_vpn // PTES_PER_PTP
        end_slot = -(-end_vpn // PTES_PER_PTP)
        for slot_index in range(first_slot, end_slot):
            if slots is not None and slot_index not in slots:
                continue
            slot = self._slots.get(slot_index)
            if slot is None or slot.ptp is None:
                continue
            ptp = slot.ptp
            hw = ptp.hw
            base = slot_index * PTES_PER_PTP
            for index in range(max(first_vpn - base, 0),
                               min(end_vpn - base, PTES_PER_PTP)):
                if hw[index] & Pte.VALID:
                    yield slot_index, ptp, index

    def populated_slots(self) -> Iterator[Tuple[int, L1Slot]]:
        """Yield ``(slot_index, slot)`` for populated slots, ascending."""
        for index in sorted(self._slots):
            slot = self._slots[index]
            if slot.ptp is not None:
                yield index, slot

    def slot_base_va(self, index: int) -> int:
        """Base virtual address of a slot's 2MB range."""
        return index << PTP_SHIFT

    @property
    def populated_count(self) -> int:
        """Number of populated level-1 slots."""
        return sum(1 for _, s in self.populated_slots())

    def valid_pte_count(self) -> int:
        """Total valid PTEs across the tree (counts shared PTPs once)."""
        return sum(slot.ptp.valid_count for _, slot in self.populated_slots())
