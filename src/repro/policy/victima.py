"""Victima: the shared L2 cache as a TLB victim cache.

Victima (Kanellopoulos et al., MICRO 2023) observes that L2 capacity is
chronically underutilized while TLB reach is chronically short, and
parks evicted TLB entries in L2 cache lines: a main-TLB miss first
probes the L2 for a parked translation and revives it at L2-hit cost
instead of paying a full two-level walk.

Mapping onto this simulator:

* every main-TLB LRU victim is *parked*: remembered in a policy-side
  store and allocated into the shared L2 as a synthetic line at
  :data:`VICTIMA_LINE_BASE` + (vpn, asid) — so parked translations
  genuinely compete for L2 capacity with data and PTE lines (the
  pollution Victima trades for reach);
* a main-TLB miss probes the store (same VPN aliasing as the hardware
  lookup: small page, 64KB large page, 1MB section).  A parked entry
  whose L2 line has since been evicted is *stale* and dropped — the
  L2 is the ground truth for residency;
* a revived entry costs ``l2_hit_stall`` instead of the walk, counts
  as a main-TLB hit (the engine's miss-rate gauge is unchanged; walk
  cycles shrink), and is re-inserted into the main TLB — whose new
  victim is parked in turn;
* TLB maintenance parity: ``flush all`` / ``asid`` / ``va`` drop the
  matching parked entries (the store may never outlive an entry the
  hardware was told to forget), while ``non-global`` keeps parked
  global entries, mirroring main-TLB semantics.

The interaction the ISSUE asks about: under shared PTPs + shared TLB
entries, parked *global* entries survive ``non-global`` context-switch
flushes exactly like live ones, so Victima extends the reach of shared
translations too.
"""

from typing import Dict, Iterable, List, Optional

from repro.common.constants import NUM_ASIDS
from repro.policy.base import TranslationPolicy

#: L2 line number where the synthetic victim-store lines start.  Far
#: above any real physical memory (paddrs stay below ~2^37) and below
#: the replicated-pt stride (2^52), so synthetic lines never alias
#: data, PTE, or replica lines.
VICTIMA_LINE_BASE = 1 << 42


class VictimaPolicy(TranslationPolicy):
    """Park main-TLB victims in the shared L2; probe before walking."""

    name = "victima"
    active = True

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        l2 = kernel.platform.shared_l2
        self._l2 = l2
        self._line_shift = l2.line_shift
        #: Parked entries: base vpn -> {asid: TlbEntry}.
        self._parked: Dict[int, Dict[int, object]] = {}
        self.counters = {
            "parked": 0,    # victims parked (including re-parks)
            "revived": 0,   # misses resolved from the store
            "stale": 0,     # probes that found the L2 line evicted
            "flushed": 0,   # parked entries dropped by TLB maintenance
            "replaced": 0,  # parks that overwrote an older (vpn, asid)
        }

    # -- the victim store ---------------------------------------------

    def _line_paddr(self, entry) -> int:
        return (VICTIMA_LINE_BASE + entry.vpn * NUM_ASIDS
                + entry.asid) << self._line_shift

    def _park(self, entry) -> None:
        bucket = self._parked.setdefault(entry.vpn, {})
        if entry.asid in bucket:
            self.counters["replaced"] += 1
        bucket[entry.asid] = entry
        self.counters["parked"] += 1
        # Allocate the synthetic line: parked translations pay for
        # their L2 residency by evicting something else.
        self._l2.access(self._line_paddr(entry))

    def on_tlb_evict(self, core, victim) -> None:
        self._park(victim)

    def tlb_miss_probe(self, core, task, vpn: int):
        for probe_vpn in (vpn, vpn & ~0xF, vpn & ~0xFF):
            bucket = self._parked.get(probe_vpn)
            if not bucket:
                continue
            for asid in list(bucket):
                entry = bucket[asid]
                if not entry.matches(vpn, task.asid):
                    continue
                del bucket[asid]
                if not bucket:
                    del self._parked[probe_vpn]
                if not self._l2.contains(self._line_paddr(entry)):
                    # The L2 evicted the line under capacity pressure;
                    # the parked translation went with it.
                    self.counters["stale"] += 1
                    continue
                self.counters["revived"] += 1
                revict = core.main_tlb.insert(entry)
                if revict is not None:
                    self._park(revict)
                return entry, core.caches.cost.l2_hit_stall
        return None, 0

    # -- TLB maintenance parity ---------------------------------------

    def on_tlb_flush(self, kind: str, asid: Optional[int] = None,
                     vpn: Optional[int] = None) -> None:
        if kind == "all":
            self._drop(lambda e: True)
        elif kind == "non-global":
            self._drop(lambda e: not e.global_)
        elif kind == "asid":
            self._drop(lambda e: not e.global_ and e.asid == asid)
        elif kind == "va":
            self._drop(lambda e: e.vpn <= vpn < e.vpn + e.span_pages)

    def _drop(self, doomed) -> None:
        for base_vpn in list(self._parked):
            bucket = self._parked[base_vpn]
            for asid in list(bucket):
                if doomed(bucket[asid]):
                    del bucket[asid]
                    self.counters["flushed"] += 1
            if not bucket:
                del self._parked[base_vpn]

    # -- introspection ------------------------------------------------

    def parked_entries(self) -> List:
        """Every live parked entry (deterministic order)."""
        return [bucket[asid]
                for _, bucket in sorted(self._parked.items())
                for asid in sorted(bucket)]

    def event_counts(self) -> Dict[str, int]:
        return dict(self.counters)

    def gauges(self) -> Dict[str, float]:
        gauges = dict(self.counters)
        gauges["parked-live"] = len(self.parked_entries())
        return gauges

    def shadow_entries(self) -> Iterable:
        return self.parked_entries()

    def check_invariants(self) -> Iterable[str]:
        c = self.counters
        live = (c["parked"] - c["revived"] - c["stale"]
                - c["flushed"] - c["replaced"])
        actual = len(self.parked_entries())
        if live != actual:
            yield (
                f"victim-store accounting broken: counters imply {live} "
                f"parked entries but the store holds {actual}"
            )
