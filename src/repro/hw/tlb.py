"""TLB models: the Cortex-A9 two-level TLB hierarchy.

Each core has small micro-TLBs (instruction and data) in front of a
unified, 128-entry, 2-way set-associative *main TLB*.  On the Cortex-A9
the micro-TLBs are flushed on every context switch (the paper therefore
evaluates TLB sharing on the main TLB, Section 4.1.1); the main TLB tags
entries with an ASID unless the PTE's *global* bit is set, in which case
the entry matches in every address space.  Entries also carry the ARM
domain ID inherited from their level-1 PTE; the MMU checks the running
task's DACR against it on every hit.

Flush semantics follow the hardware:

* :meth:`MainTlb.flush_all` — invalidate everything, including global
  entries (ARM ``TLBIALL``).
* :meth:`MainTlb.flush_non_global` — invalidate everything except global
  entries (how an OS without ASIDs preserves global mappings across a
  context switch, analogous to an x86 CR3 reload).
* :meth:`MainTlb.flush_asid` — invalidate one address space's non-global
  entries (``TLBIASID``).
* :meth:`MainTlb.flush_va` — invalidate all entries matching a virtual
  page, regardless of ASID or global bit (``TLBIMVAA``); this is what
  the paper's domain-fault handler uses (Section 3.2.3).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.constants import (
    MAIN_TLB_ENTRIES,
    MAIN_TLB_WAYS,
    MICRO_TLB_ENTRIES,
)
from repro.common.errors import ConfigError
from repro.policy import NULL_POLICY
from repro.trace import NULL_TRACER, EventType


@dataclass
class TlbEntry:
    """One main-TLB entry."""

    vpn: int
    #: ASID the entry was loaded under; ignored on match when ``global_``.
    asid: int
    pfn: int
    writable: bool
    global_: bool
    domain: int
    #: Entry granularity in 4KB pages (1 = small page, 16 = ARM large
    #: page, 256 = section); kernel text uses section entries.
    span_pages: int = 1

    def matches(self, vpn: int, asid: int) -> bool:
        """True when this entry translates (vpn, asid)."""
        if not (self.vpn <= vpn < self.vpn + self.span_pages):
            return False
        return self.global_ or self.asid == asid


@dataclass
class TlbStats:
    """Hit/miss/flush accounting for one TLB."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    flushes: int = 0
    entries_flushed: int = 0
    #: Flush operations by kind (``all`` / ``non-global`` / ``asid`` /
    #: ``va``), so the metrics layer can report flush causes without
    #: scraping trace events.  ``flushes`` stays the total of these.
    flushes_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        """Total probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses over total accesses (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def record_flush(self, kind: str, entries: int) -> None:
        """Count one flush operation of ``kind`` dropping ``entries``."""
        self.flushes += 1
        self.entries_flushed += entries
        self.flushes_by_kind[kind] = self.flushes_by_kind.get(kind, 0) + 1


class MainTlb:
    """Unified set-associative main TLB with ASID/global/domain support."""

    #: Event tracer; the kernel overwrites this when tracing is enabled.
    tracer = NULL_TRACER
    #: Translation policy; the kernel overwrites this when one is
    #: configured.  Flush hooks keep policy-side shadow state (e.g. the
    #: Victima victim store) in maintenance parity with the hardware.
    policy = NULL_POLICY

    def __init__(
        self,
        entries: int = MAIN_TLB_ENTRIES,
        ways: int = MAIN_TLB_WAYS,
    ) -> None:
        if entries % ways != 0:
            raise ConfigError("TLB entries must divide evenly into ways")
        self.num_sets = entries // ways
        self.ways = ways
        # Per-set LRU list: index 0 is most recently used.
        self._sets: List[List[TlbEntry]] = [[] for _ in range(self.num_sets)]
        self.stats = TlbStats()

    def _set_for(self, vpn: int) -> List[TlbEntry]:
        return self._sets[vpn % self.num_sets]

    def lookup(self, vpn: int, asid: int) -> Optional[TlbEntry]:
        """Probe the TLB.  Updates LRU and hit/miss statistics.

        Section (and large-page) entries can land in a different set
        than the probing VPN; real hardware indexes them by their base.
        We probe the entry's home set, which for span > 1 means probing
        by the aligned base VPN as hardware does.
        """
        sets = self._sets
        num_sets = self.num_sets
        # Small page (exact vpn), 64KB large page base, 1MB section base.
        for probe_vpn in (vpn, vpn & ~0xF, vpn & ~0xFF):
            tlb_set = sets[probe_vpn % num_sets]
            position = 0
            for entry in tlb_set:
                # TlbEntry.matches, inline: this runs on every micro miss.
                if (entry.vpn <= vpn < entry.vpn + entry.span_pages
                        and (entry.global_ or entry.asid == asid)):
                    if position:
                        tlb_set.insert(0, tlb_set.pop(position))
                    self.stats.hits += 1
                    return entry
                position += 1
        self.stats.misses += 1
        return None

    def insert(self, entry: TlbEntry) -> Optional[TlbEntry]:
        """Fill an entry, evicting the LRU victim if the set is full."""
        tlb_set = self._set_for(entry.vpn)
        victim = None
        if len(tlb_set) >= self.ways:
            victim = tlb_set.pop()
            self.stats.evictions += 1
        tlb_set.insert(0, entry)
        self.stats.insertions += 1
        return victim

    # -- flush operations ---------------------------------------------------

    def flush_all(self) -> int:
        """``TLBIALL``: drop everything, global entries included."""
        flushed = sum(len(s) for s in self._sets)
        for tlb_set in self._sets:
            tlb_set.clear()
        self.stats.record_flush("all", flushed)
        policy = self.policy
        if policy.active:
            policy.on_tlb_flush("all")
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(EventType.TLB_FLUSH, cause="flush-all",
                        value=flushed)
        return flushed

    def flush_non_global(self) -> int:
        """Drop all non-global entries (context switch without ASIDs)."""
        flushed = 0
        for index, tlb_set in enumerate(self._sets):
            kept = [e for e in tlb_set if e.global_]
            flushed += len(tlb_set) - len(kept)
            self._sets[index] = kept
        self.stats.record_flush("non-global", flushed)
        policy = self.policy
        if policy.active:
            policy.on_tlb_flush("non-global")
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(EventType.TLB_FLUSH, cause="flush-non-global",
                        value=flushed)
        return flushed

    def flush_asid(self, asid: int) -> int:
        """``TLBIASID``: drop one address space's non-global entries."""
        flushed = 0
        for index, tlb_set in enumerate(self._sets):
            kept = [e for e in tlb_set if e.global_ or e.asid != asid]
            flushed += len(tlb_set) - len(kept)
            self._sets[index] = kept
        self.stats.record_flush("asid", flushed)
        policy = self.policy
        if policy.active:
            policy.on_tlb_flush("asid", asid=asid)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(EventType.TLB_FLUSH, cause="flush-asid",
                        value=flushed)
        return flushed

    def flush_va(self, vpn: int) -> int:
        """``TLBIMVAA``: drop every entry matching a virtual page,
        regardless of ASID or global bit (the domain-fault handler)."""
        flushed = 0
        for index, tlb_set in enumerate(self._sets):
            kept = [
                e for e in tlb_set
                if not (e.vpn <= vpn < e.vpn + e.span_pages)
            ]
            flushed += len(tlb_set) - len(kept)
            self._sets[index] = kept
        self.stats.record_flush("va", flushed)
        policy = self.policy
        if policy.active:
            policy.on_tlb_flush("va", vpn=vpn)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(EventType.TLB_FLUSH, vaddr=vpn << 12,
                        cause="flush-va", value=flushed)
        return flushed

    # -- introspection --------------------------------------------------------

    def occupancy(self) -> int:
        """Number of entries/lines currently held."""
        return sum(len(s) for s in self._sets)

    def entries(self) -> List[TlbEntry]:
        """Every live entry, in no particular order."""
        return [e for s in self._sets for e in s]

    def global_entry_count(self) -> int:
        """Number of global (ASID-ignoring) entries."""
        return sum(1 for e in self.entries() if e.global_)


class MicroTlb:
    """A small fully-associative micro-TLB (I or D side).

    Flushed on every context switch (Cortex-A9 behaviour), so entries
    need no ASID tag: within one scheduling quantum all entries belong
    to the running task.  Entries are cached :class:`TlbEntry` objects so
    permission and domain checks behave identically on micro hits.
    """

    def __init__(self, entries: int = MICRO_TLB_ENTRIES) -> None:
        self.capacity = entries
        self._entries: Dict[int, TlbEntry] = {}
        self._lru: List[int] = []  # VPNs, most recent first.
        self.stats = TlbStats()

    def lookup(self, vpn: int) -> Optional[TlbEntry]:
        """Probe for an entry; updates LRU and statistics."""
        entry = self._entries.get(vpn)
        if entry is not None:
            lru = self._lru
            if lru[0] != vpn:
                lru.remove(vpn)
                lru.insert(0, vpn)
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        return None

    def insert(self, entry: TlbEntry, key_vpn: Optional[int] = None) -> None:
        """Cache ``entry``, keyed by the accessed page.

        ``key_vpn`` lets callers cache a section/large-page entry under
        the specific 4KB page that was accessed (micro-TLBs replicate
        large translations per page on real hardware).
        """
        vpn = entry.vpn if key_vpn is None else key_vpn
        if vpn in self._entries:
            self._lru.remove(vpn)
        elif len(self._lru) >= self.capacity:
            victim = self._lru.pop()
            del self._entries[victim]
            self.stats.evictions += 1
        self._entries[vpn] = entry
        self._lru.insert(0, vpn)
        self.stats.insertions += 1

    def flush(self) -> int:
        """Drop every entry."""
        flushed = len(self._lru)
        self._entries.clear()
        self._lru.clear()
        self.stats.record_flush("all", flushed)
        return flushed

    def flush_va(self, vpn: int) -> int:
        """Drop entries matching one virtual page."""
        flushed = 0
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.vpn <= vpn < entry.vpn + entry.span_pages:
                del self._entries[key]
                self._lru.remove(key)
                flushed += 1
        if flushed:
            self.stats.record_flush("va", flushed)
        return flushed

    def occupancy(self) -> int:
        """Number of entries/lines currently held."""
        return len(self._lru)

    def entries(self) -> List[TlbEntry]:
        """Every live entry, in no particular order."""
        return list(self._entries.values())
