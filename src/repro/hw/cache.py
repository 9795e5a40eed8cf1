"""Set-associative cache models and the per-core hierarchy.

The Nexus 7's Cortex-A9 cores each have private 32KB L1 instruction and
data caches and share a 1MB L2.  Two properties matter for the paper:

* hardware page-table walks allocate the PTE's cache line into the L2
  *and* the L1 data cache on ARMv7 (paper, Section 2.1 / Figure 1), so
  private page tables duplicate PTE lines across processes and pollute
  the shared L2, while shared PTPs collapse them onto one line;
* page-fault handling executes kernel instructions through the same L1
  instruction cache as the application, so eliminating soft faults also
  removes kernel I-cache pollution — the paper's launch-time L1-I stall
  reduction (Section 4.2.2).

All caches here are physically tagged (the L1-I on the A9 is virtually
indexed but physically tagged; with 4KB pages and 32KB/4-way geometry
the index bits come entirely from the page offset, so indexing by the
physical address is exact).

Two models give the same answers.  :class:`Cache` is the reference:
each set is a list of lines, most recently used first, and every probe
scans, removes and inserts.  The L1-D and the shared L2 use it, because
they see single lines and short runs: data runs of a few lines, walk
reads, L1 misses and the lines the Victima policy parks in the L2.
:class:`RunCache`, the L1-I model, also takes a run of consecutive
lines in bulk, so a kernel path that re-fetches hundreds of resident
lines costs O(misses) rather than O(lines).  DESIGN.md §16 describes
the bookkeeping.
"""

from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.common.constants import (
    CACHE_LINE_SHIFT,
    L1_CACHE_SIZE,
    L1_CACHE_WAYS,
    L2_CACHE_SIZE,
    L2_CACHE_WAYS,
)
from repro.common.cost import CostModel
from repro.common.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses over total accesses (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative, physically tagged cache with LRU replacement."""

    def __init__(self, name: str, size: int, ways: int,
                 line_shift: int = CACHE_LINE_SHIFT) -> None:
        line_size = 1 << line_shift
        if size <= 0 or ways <= 0:
            raise ConfigError(
                f"{name}: size and ways must be positive "
                f"(size={size}, ways={ways})")
        if size % (ways * line_size) != 0:
            raise ConfigError(f"{name}: size/ways/line geometry mismatch")
        self.name = name
        self.line_shift = line_shift
        self.num_sets = size // (ways * line_size)
        self.ways = ways
        # Per-set list of line tags (full line addresses), MRU first.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def line_of(self, paddr: int) -> int:
        """Cache-line number of a physical address."""
        return paddr >> self.line_shift

    def access(self, paddr: int) -> bool:
        """Probe-and-fill: returns True on hit, fills on miss."""
        line = self.line_of(paddr)
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            cache_set.remove(line)
            cache_set.insert(0, line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.ways:
            cache_set.pop()
            self.stats.evictions += 1
        cache_set.insert(0, line)
        return False

    def run_misses(self, line: int, nlines: int) -> List[int]:
        """Probe-and-fill lines ``line .. line + nlines - 1`` in order.

        Returns the lines that missed, in run order.
        """
        sets, nsets, ways = self._sets, self.num_sets, self.ways
        stats = self.stats
        missed: List[int] = []
        for current in range(line, line + nlines):
            cache_set = sets[current % nsets]
            if current in cache_set:
                cache_set.remove(current)
                cache_set.insert(0, current)
                stats.hits += 1
                continue
            stats.misses += 1
            if len(cache_set) >= ways:
                cache_set.pop()
                stats.evictions += 1
            cache_set.insert(0, current)
            missed.append(current)
        return missed

    def contains(self, paddr: int) -> bool:
        """Probe without updating LRU or statistics."""
        line = self.line_of(paddr)
        return line in self._sets[line % self.num_sets]

    def lines(self) -> Iterator[int]:
        """Every resident line number, set by set."""
        for cache_set in self._sets:
            yield from cache_set

    def occupancy(self) -> int:
        """Number of entries/lines currently held."""
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        """Drop every entry."""
        for cache_set in self._sets:
            cache_set.clear()


class RunCache(Cache):
    """A :class:`Cache` that takes runs of consecutive lines in bulk.

    Every probe returns what :class:`Cache` would return, with the same
    statistics and the same resident lines; only the bookkeeping of
    recency differs.  ``tag, set = divmod(line, num_sets)``.  The order
    of a set's list does not matter: the last use of each line is a
    tick of the cache's clock, kept in the row of the line's tag, and
    the victim is the line with the lowest tick.

    A tag's row holds one tick per set, then the bitmask of the sets
    that hold a line of that tag.  A run is cut at tag boundaries into
    pieces of at most ``num_sets`` lines.  The lines of a piece fall in
    different sets, so their probes commute: the mask gives the piece's
    misses, one slice assignment stamps every line of the piece with the
    same tick, and only the misses are filled one by one, in run order.
    """

    def __init__(self, name: str, size: int, ways: int,
                 line_shift: int = CACHE_LINE_SHIFT) -> None:
        super().__init__(name, size, ways, line_shift)
        self._clock = 0
        #: tag -> its row: ticks by set, then its mask of sets.
        self._rows: Dict[int, List[int]] = {}
        #: Per set, the rows of its lines' tags, in list order.
        self._set_rows: List[List[List[int]]] = [
            [] for _ in range(self.num_sets)]

    def access(self, paddr: int) -> bool:
        tag, index = divmod(paddr >> self.line_shift, self.num_sets)
        missed: List[int] = []
        self._bulk(tag, index, index + 1, missed)
        return not missed

    def run_misses(self, line: int, nlines: int) -> List[int]:
        missed: List[int] = []
        nsets = self.num_sets
        end = line + nlines
        while line < end:
            tag, low = divmod(line, nsets)
            high = min(nsets, low + end - line)
            self._bulk(tag, low, high, missed)
            line += high - low
        return missed

    def flush(self) -> None:
        super().flush()
        self._clock = 0
        self._rows.clear()
        for set_rows in self._set_rows:
            set_rows.clear()

    def _bulk(self, tag: int, low: int, high: int,
              missed: List[int]) -> None:
        """Probe-and-fill the lines of ``tag`` in sets ``low .. high-1``.

        Appends the lines that missed to ``missed``, in run order.
        """
        count = high - low
        rows = self._rows
        row = rows.get(tag)
        if row is None:
            row = rows[tag] = [0] * (self.num_sets + 1)
        self._clock = clock = self._clock + 1
        row[low:high] = [clock] * count
        held = row[-1]
        miss = ((1 << count) - 1) << low & ~held
        stats = self.stats
        if not miss:
            stats.hits += count
            return
        row[-1] = held | miss
        sets, all_set_rows, ways = self._sets, self._set_rows, self.ways
        base = tag * self.num_sets
        misses = evictions = 0
        while miss:
            bit = miss & -miss
            miss ^= bit
            index = bit.bit_length() - 1
            line = base + index
            missed.append(line)
            misses += 1
            cache_set = sets[index]
            set_rows = all_set_rows[index]
            if len(cache_set) < ways:
                cache_set.append(line)
                set_rows.append(row)
                continue
            # Evict the line with the lowest tick.
            at = position = 0
            oldest = set_rows[0]
            lowest = oldest[index]
            for other in set_rows:
                if other[index] < lowest:
                    lowest, oldest, at = other[index], other, position
                position += 1
            evictions += 1
            oldest[-1] ^= bit
            if not oldest[-1]:
                del rows[cache_set[at] // self.num_sets]
            cache_set[at] = line
            set_rows[at] = row
        stats.hits += count - misses
        stats.misses += misses
        stats.evictions += evictions


def make_l1_icache() -> RunCache:
    """A Cortex-A9-shaped 32KB 4-way instruction cache."""
    return RunCache("L1-I", L1_CACHE_SIZE, L1_CACHE_WAYS)


def make_l1_dcache() -> Cache:
    """A Cortex-A9-shaped 32KB 4-way data cache."""
    return Cache("L1-D", L1_CACHE_SIZE, L1_CACHE_WAYS)


def make_l2_cache() -> Cache:
    """The shared 1MB 8-way L2 cache."""
    return Cache("L2", L2_CACHE_SIZE, L2_CACHE_WAYS)


class CacheHierarchy:
    """One core's view: private L1-I/L1-D in front of the shared L2.

    Each access method returns the stall cycles it incurred, so callers
    can attribute them to the right accounting bucket (instruction-fetch
    stalls vs. data stalls vs. table-walk stalls).
    """

    def __init__(self, l1i: Cache, l1d: Cache, shared_l2: Cache,
                 cost: CostModel) -> None:
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = shared_l2
        self.cost = cost

    def _through(self, l1: Cache, paddr: int) -> int:
        if l1.access(paddr):
            return 0
        if self.l2.access(paddr):
            return self.cost.l2_hit_stall
        return self.cost.memory_stall

    def fetch(self, paddr: int) -> int:
        """Instruction fetch; returns stall cycles."""
        return self._through(self.l1i, paddr)

    def load_store(self, paddr: int) -> int:
        """Data access; returns stall cycles."""
        return self._through(self.l1d, paddr)

    def walk_read(self, paddr: int) -> int:
        """A table-walk read of a PTE word.

        On ARMv7 the walker allocates into both the L2 and the L1 data
        cache (paper, Section 2.1), so this is simply a data access —
        which is exactly the pollution effect the paper describes.
        """
        return self._through(self.l1d, paddr)

    def fetch_run(self, paddr: int, nlines: int) -> int:
        """Fetch ``nlines`` consecutive cache lines starting at ``paddr``.

        Semantically identical to ``nlines`` calls to :meth:`fetch`.
        Instruction streams, and the kernel fault path in particular,
        fetch long runs of mostly resident lines, so the L1 takes the
        whole run at once (:meth:`RunCache.run_misses`) and only its
        misses go on to the L2, one by one and in run order.
        """
        return self._run(self.l1i, paddr, nlines)

    def data_run(self, paddr: int, nlines: int) -> int:
        """Like :meth:`fetch_run` for the data side."""
        return self._run(self.l1d, paddr, nlines)

    def _run(self, l1: Cache, paddr: int, nlines: int) -> int:
        missed = l1.run_misses(paddr >> l1.line_shift, nlines)
        if not missed:
            return 0
        l2 = self.l2
        l2_sets, l2_nsets, l2_ways = l2._sets, l2.num_sets, l2.ways
        l2_stats = l2.stats
        hits = 0
        for line in missed:
            l2_set = l2_sets[line % l2_nsets]
            if line in l2_set:
                l2_set.remove(line)
                l2_set.insert(0, line)
                hits += 1
                continue
            l2_stats.misses += 1
            if len(l2_set) >= l2_ways:
                l2_set.pop()
                l2_stats.evictions += 1
            l2_set.insert(0, line)
        l2_stats.hits += hits
        return (hits * self.cost.l2_hit_stall
                + (len(missed) - hits) * self.cost.memory_stall)
