"""Cache models: geometry, LRU, hierarchy stall accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.cost import CostModel
from repro.common.errors import ConfigError
from repro.hw.cache import (
    Cache,
    CacheHierarchy,
    RunCache,
    make_l1_dcache,
    make_l1_icache,
    make_l2_cache,
)

LINE = 32


def small_hierarchy():
    cost = CostModel()
    l1i = RunCache("L1-I", 1024, 2)  # 16 sets x 2 ways x 32B.
    l1d = Cache("L1-D", 1024, 2)
    l2 = Cache("L2", 4096, 4)
    return CacheHierarchy(l1i, l1d, l2, cost), cost


class TestCacheBasics:
    def test_geometry(self):
        for model in (Cache, RunCache):
            cache = model("t", 1024, 2)
            assert cache.num_sets == 16
            with pytest.raises(ConfigError):
                model("bad", 1000, 3)
            # Zero or negative sizes and way counts would leave no set to
            # index (or a negative count of them).
            for size, ways in [(1024, 0), (0, 4), (-1024, 2), (1024, -2)]:
                with pytest.raises(ConfigError, match="must be positive"):
                    model("bad", size, ways)

    def test_lines_lists_every_resident_line(self):
        cache = Cache("t", 1024, 2)
        for paddr in (0x0, 0x20, 0x200, 0x400, 0x5020):
            cache.access(paddr)
        # 0x0, 0x200 and 0x400 share set 0; two ways keep the last two.
        assert sorted(cache.lines()) == [0x20 >> 5, 0x200 >> 5, 0x400 >> 5,
                                         0x5020 >> 5]
        assert len(list(cache.lines())) == cache.occupancy()

    def test_hit_after_fill(self):
        cache = Cache("t", 1024, 2)
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_different_bytes(self):
        cache = Cache("t", 1024, 2)
        cache.access(0x1000)
        assert cache.access(0x101F) is True   # Same 32B line.
        assert cache.access(0x1020) is False  # Next line.

    def test_lru_eviction(self):
        cache = Cache("t", 1024, 2)  # 16 sets.
        set_stride = 16 * 32  # Same-set addresses.
        a, b, c = 0, set_stride, 2 * set_stride
        cache.access(a)
        cache.access(b)
        cache.access(a)       # a MRU.
        cache.access(c)       # Evicts b.
        assert cache.stats.evictions == 1
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_contains_does_not_touch_stats(self):
        cache = Cache("t", 1024, 2)
        cache.access(0)
        hits = cache.stats.hits
        assert cache.contains(0)
        assert not cache.contains(0x2000)
        assert cache.stats.hits == hits

    def test_flush(self):
        cache = Cache("t", 1024, 2)
        cache.access(0)
        cache.flush()
        assert cache.occupancy() == 0

    def test_default_geometries(self):
        assert make_l1_icache().num_sets == 32 * 1024 // (4 * 32)
        assert make_l1_dcache().num_sets == 32 * 1024 // (4 * 32)
        assert make_l2_cache().num_sets == 1024 * 1024 // (8 * 32)


class TestHierarchyStalls:
    def test_miss_both_levels_costs_memory(self):
        h, cost = small_hierarchy()
        assert h.fetch(0x5000) == cost.memory_stall

    def test_l2_hit_after_l1_eviction(self):
        h, cost = small_hierarchy()
        h.fetch(0x0)
        # Evict from L1 (2 ways, same set) while L2 (4 ways) retains.
        h.fetch(0x200)
        h.fetch(0x400)
        assert h.fetch(0x0) == cost.l2_hit_stall

    def test_l1_hit_is_free(self):
        h, _ = small_hierarchy()
        h.fetch(0x5000)
        assert h.fetch(0x5000) == 0

    def test_instruction_and_data_sides_are_separate(self):
        h, cost = small_hierarchy()
        h.fetch(0x5000)
        # Data access to the same line: L1-D misses but L2 hits.
        assert h.load_store(0x5000) == cost.l2_hit_stall

    def test_walk_read_uses_data_side(self):
        h, _ = small_hierarchy()
        h.walk_read(0x7000)
        assert h.l1d.stats.misses == 1
        assert h.l1i.stats.misses == 0


class TestRunPrimitives:
    def test_fetch_run_equals_individual_fetches(self):
        h1, _ = small_hierarchy()
        h2, _ = small_hierarchy()
        base = 0x3000
        individual = sum(h1.fetch(base + i * 32) for i in range(40))
        batched = h2.fetch_run(base, 40)
        assert batched == individual
        assert h1.l1i.stats.misses == h2.l1i.stats.misses
        assert h1.l2.stats.misses == h2.l2.stats.misses

    def test_data_run_equals_individual_accesses(self):
        h1, _ = small_hierarchy()
        h2, _ = small_hierarchy()
        individual = sum(h1.load_store(0x9000 + i * 32) for i in range(17))
        assert h2.data_run(0x9000, 17) == individual

    @given(st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=1, max_value=128))
    def test_fetch_run_matches_reference(self, base_line, nlines):
        base = base_line * 32
        h1, _ = small_hierarchy()
        h2, _ = small_hierarchy()
        expected = sum(h1.fetch(base + i * 32) for i in range(nlines))
        assert h2.fetch_run(base, nlines) == expected


class TestSharedL2:
    def test_two_cores_share_l2_lines(self):
        cost = CostModel()
        l2 = Cache("L2", 4096, 4)
        core_a = CacheHierarchy(Cache("a-i", 1024, 2), Cache("a-d", 1024, 2),
                                l2, cost)
        core_b = CacheHierarchy(Cache("b-i", 1024, 2), Cache("b-d", 1024, 2),
                                l2, cost)
        assert core_a.fetch(0x8000) == cost.memory_stall
        # Core B misses its private L1 but hits the shared L2.
        assert core_b.fetch(0x8000) == cost.l2_hit_stall


class ReferenceHierarchy:
    """The per-line semantics every hierarchy must reproduce.

    Each line probes its L1 through the ordered-list :class:`Cache`, and
    an L1 miss probes the L2: no bulk path, no run splitting.
    """

    def __init__(self, l1i: Cache, l1d: Cache, l2: Cache,
                 cost: CostModel) -> None:
        self.l1i, self.l1d, self.l2, self.cost = l1i, l1d, l2, cost

    def _through(self, l1: Cache, paddr: int) -> int:
        if l1.access(paddr):
            return 0
        if self.l2.access(paddr):
            return self.cost.l2_hit_stall
        return self.cost.memory_stall

    def fetch(self, paddr):
        return self._through(self.l1i, paddr)

    def load_store(self, paddr):
        return self._through(self.l1d, paddr)

    def walk_read(self, paddr):
        return self._through(self.l1d, paddr)

    def fetch_run(self, paddr, nlines):
        return sum(self.fetch(paddr + i * LINE) for i in range(nlines))

    def data_run(self, paddr, nlines):
        return sum(self.load_store(paddr + i * LINE) for i in range(nlines))


#: (L1 size, L1 ways, L2 size, L2 ways).  The second geometry gives the
#: L1 more sets (32) than the L2 (8); the third has 24 L1 sets, not a
#: power of two.
GEOMETRIES = [(1024, 2, 4096, 4), (2048, 2, 1024, 4), (1536, 2, 4096, 4)]

OPERATIONS = ("fetch_run", "data_run", "fetch", "load_store", "walk_read")


def _cores(model, l1i_model, l1d_model, geometry):
    """Two cores sharing one L2, built from the given L1 models."""
    l1_size, l1_ways, l2_size, l2_ways = geometry
    cost = CostModel()
    l2 = Cache("L2", l2_size, l2_ways)
    return [model(l1i_model(f"{core}-i", l1_size, l1_ways),
                  l1d_model(f"{core}-d", l1_size, l1_ways), l2, cost)
            for core in range(2)]


def _tick_rows_are_bounded(cache: RunCache) -> bool:
    """Rows exist exactly for the resident tags, so the bookkeeping
    never outgrows what the cache holds."""
    held = {line // cache.num_sets for line in cache.lines()}
    return set(cache._rows) == held


def _caches(cores):
    seen = []
    for core in cores:
        for cache in (core.l1i, core.l1d, core.l2):
            if all(cache is not other for other in seen):
                seen.append(cache)
    return seen


@st.composite
def _programs(draw):
    geometry = draw(st.sampled_from(GEOMETRIES))
    # The L1-D is a Cache in the CPU; a RunCache there puts single
    # probes and short runs through the bulk path too.
    l1d_model = draw(st.sampled_from((Cache, RunCache)))
    num_sets = geometry[0] // (geometry[1] * LINE)
    # A few L1s' worth of lines, so lines recur, sets overflow and runs
    # wrap past set 0 and across tags.
    space = 6 * num_sets
    step = st.tuples(
        st.integers(0, 1),
        st.sampled_from(OPERATIONS),
        st.integers(0, space - 1),
        st.integers(1, 3 * num_sets),
    )
    return geometry, l1d_model, draw(
        st.lists(step, min_size=1, max_size=40))


class TestRunCacheAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_programs())
    def test_every_step_matches_the_per_line_model(self, program):
        geometry, l1d_model, steps = program
        new = _cores(CacheHierarchy, RunCache, l1d_model, geometry)
        ref = _cores(ReferenceHierarchy, Cache, Cache, geometry)
        touched = set()
        for core, operation, line, nlines in steps:
            paddr = line * LINE
            if operation.endswith("_run"):
                args = (paddr, nlines)
                touched.update(range(line, line + nlines))
            else:
                args = (paddr,)
                touched.add(line)
            got = getattr(new[core], operation)(*args)
            want = getattr(ref[core], operation)(*args)
            assert got == want, (operation, args)
            for mine, theirs in zip(_caches(new), _caches(ref)):
                assert mine.stats == theirs.stats, mine.name
                assert mine.occupancy() == theirs.occupancy(), mine.name
                assert [mine.contains(t * LINE) for t in sorted(touched)] == [
                    theirs.contains(t * LINE) for t in sorted(touched)]
                assert sorted(mine.lines()) == sorted(theirs.lines())
                if isinstance(mine, RunCache):
                    assert _tick_rows_are_bounded(mine), mine.name
