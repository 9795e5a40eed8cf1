"""VMAs and the mm_struct address-space bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from repro.common.constants import PAGE_SIZE, PTP_SPAN
from repro.common.errors import VmaError
from repro.common.perms import MapFlags, Prot
from repro.hw.memory import PhysicalMemory
from repro.kernel.mm import MmStruct
from repro.kernel.pagecache import PageCache
from repro.kernel.vma import Vma

ANON = MapFlags.PRIVATE | MapFlags.ANONYMOUS


def anon_vma(start, pages, prot=Prot.READ | Prot.WRITE, flags=ANON):
    return Vma(start=start, end=start + pages * PAGE_SIZE, prot=prot,
               flags=flags)


class TestFlagPredicates:
    """The predicates agree with flag arithmetic for every combination."""

    def test_prot_predicates_match_flag_arithmetic(self):
        for value in range(8):
            prot = Prot(value)
            assert prot.readable == bool(prot & Prot.READ)
            assert prot.writable == bool(prot & Prot.WRITE)
            assert prot.executable == bool(prot & Prot.EXEC)

    def test_map_flag_predicates_match_flag_arithmetic(self):
        for value in range(32):
            flags = MapFlags(value)
            assert flags.is_private == bool(flags & MapFlags.PRIVATE)
            assert flags.is_shared == bool(flags & MapFlags.SHARED)
            assert flags.is_anonymous == bool(flags & MapFlags.ANONYMOUS)
            assert flags.is_growsdown == bool(flags & MapFlags.GROWSDOWN)


class TestVmaValidation:
    def test_rejects_unaligned(self):
        with pytest.raises(VmaError):
            Vma(start=10, end=PAGE_SIZE, prot=Prot.READ, flags=ANON)

    def test_rejects_empty(self):
        with pytest.raises(VmaError):
            Vma(start=PAGE_SIZE, end=PAGE_SIZE, prot=Prot.READ, flags=ANON)

    def test_rejects_file_with_anonymous_flag(self):
        memory = PhysicalMemory()
        file = PageCache(memory).create_file("f", 4)
        with pytest.raises(VmaError):
            Vma(start=0, end=PAGE_SIZE, prot=Prot.READ, flags=ANON,
                file=file)

    def test_rejects_file_flag_without_file(self):
        with pytest.raises(VmaError):
            Vma(start=0, end=PAGE_SIZE, prot=Prot.READ,
                flags=MapFlags.PRIVATE)


class TestVmaGeometry:
    def test_contains_and_pages(self):
        vma = anon_vma(0x40000000, 4)
        assert vma.num_pages == 4
        assert vma.contains(0x40000000)
        assert vma.contains(0x40003FFF)
        assert not vma.contains(0x40004000)

    def test_overlaps(self):
        vma = anon_vma(0x40000000, 4)
        assert vma.overlaps(0x40003000, 0x40005000)
        assert not vma.overlaps(0x40004000, 0x40005000)

    def test_file_page_of(self):
        memory = PhysicalMemory()
        file = PageCache(memory).create_file("f", 32)
        vma = Vma(start=0x40000000, end=0x40004000,
                  prot=Prot.READ, flags=MapFlags.PRIVATE, file=file,
                  file_page_offset=10)
        assert vma.file_page_of(0x40000000) == 10
        assert vma.file_page_of(0x40002000) == 12

    def test_is_private_writable(self):
        assert anon_vma(0, 1).is_private_writable
        assert not anon_vma(0, 1, prot=Prot.READ).is_private_writable

    def test_is_stack(self):
        stack = anon_vma(0, 1, flags=ANON | MapFlags.GROWSDOWN)
        assert stack.is_stack


class TestVmaSplitClone:
    def test_split_preserves_coverage_and_offsets(self):
        memory = PhysicalMemory()
        file = PageCache(memory).create_file("f", 32)
        vma = Vma(start=0x40000000, end=0x40008000, prot=Prot.READ,
                  flags=MapFlags.PRIVATE, file=file, file_page_offset=4)
        left, right = vma.split_at(0x40003000)
        assert left.end == right.start == 0x40003000
        assert left.file_page_of(left.end - PAGE_SIZE) + 1 == (
            right.file_page_of(right.start)
        )

    def test_split_partitions_anon_pages(self):
        vma = anon_vma(0x40000000, 8)
        vma.anon_pages.update({0x40000, 0x40004})  # vpns.
        left, right = vma.split_at(0x40004000)
        assert left.anon_pages == {0x40000}
        assert right.anon_pages == {0x40004}

    def test_split_bounds_checked(self):
        vma = anon_vma(0x40000000, 4)
        with pytest.raises(VmaError):
            vma.split_at(0x40000000)
        with pytest.raises(VmaError):
            vma.split_at(0x40000800)

    def test_clone_deep_copies_anon_pages(self):
        vma = anon_vma(0x40000000, 2)
        vma.anon_pages.add(1)
        copy = vma.clone()
        copy.anon_pages.add(2)
        assert vma.anon_pages == {1}


class TestMmStruct:
    def make_mm(self):
        return MmStruct(PhysicalMemory(), owner_pid=1)

    def test_insert_and_find(self):
        mm = self.make_mm()
        vma = mm.insert_vma(anon_vma(0x40000000, 4))
        assert mm.find_vma(0x40000000) is vma
        assert mm.find_vma(0x40003FFF) is vma
        assert mm.find_vma(0x40004000) is None
        assert mm.find_vma(0x3FFFFFFF) is None

    def test_overlap_rejected(self):
        mm = self.make_mm()
        mm.insert_vma(anon_vma(0x40000000, 4))
        with pytest.raises(VmaError):
            mm.insert_vma(anon_vma(0x40002000, 4))

    def test_kernel_space_rejected(self):
        mm = self.make_mm()
        with pytest.raises(VmaError):
            mm.insert_vma(anon_vma(0xBFFFF000, 2))

    def test_find_intersecting_ordered(self):
        mm = self.make_mm()
        a = mm.insert_vma(anon_vma(0x40000000, 2))
        b = mm.insert_vma(anon_vma(0x40004000, 2))
        mm.insert_vma(anon_vma(0x40010000, 2))
        found = mm.find_intersecting(0x40001000, 0x40005000)
        assert found == [a, b]

    def test_carve_range_splits_straddlers(self):
        mm = self.make_mm()
        mm.insert_vma(anon_vma(0x40000000, 8))
        removed = mm.carve_range(0x40002000, 0x40005000)
        assert len(removed) == 1
        assert removed[0].start == 0x40002000
        assert removed[0].end == 0x40005000
        # The outside parts remain mapped.
        assert mm.find_vma(0x40000000) is not None
        assert mm.find_vma(0x40002000) is None
        assert mm.find_vma(0x40005000) is not None

    def test_get_unmapped_area_first_fit(self):
        mm = self.make_mm()
        first = mm.get_unmapped_area(4 * PAGE_SIZE)
        mm.insert_vma(anon_vma(first, 4))
        second = mm.get_unmapped_area(4 * PAGE_SIZE)
        assert second >= first + 4 * PAGE_SIZE

    def test_get_unmapped_area_alignment(self):
        mm = self.make_mm()
        addr = mm.get_unmapped_area(PAGE_SIZE, alignment=PTP_SPAN)
        assert addr % PTP_SPAN == 0

    def test_pgd_entry_paddrs_distinct(self):
        mm = self.make_mm()
        paddrs = {mm.pgd_entry_paddr(i) for i in (0, 1, 511, 512, 2047)}
        assert len(paddrs) == 5

    def test_vmas_in_slot(self):
        mm = self.make_mm()
        vma = mm.insert_vma(anon_vma(0x40000000, 4))
        slot = mm.tables.slot_index(0x40000000)
        assert mm.vmas_in_slot(slot) == [vma]

    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(1, 8)),
                    max_size=30))
    def test_mapped_pages_accounting(self, regions):
        mm = self.make_mm()
        expected = 0
        for slot, pages in regions:
            start = 0x40000000 + slot * PTP_SPAN
            try:
                mm.insert_vma(anon_vma(start, pages))
                expected += pages
            except VmaError:
                pass  # Overlap with a previous region: skipped.
        assert mm.total_mapped_pages() == expected
