"""The fork copy pass walks the populated page tables.

``_stock_copy`` visits only the populated level-1 slots of each range it
copies (:meth:`AddressSpaceTables.walk_valid`).  The reference below is
the per-page loop that walk replaced: it looks up every page of every
walked range.  Two identical parents are forked, one through each, and
everything fork touches must come out the same: the child's and the
parent's tables, the frame mapcounts, the counters, the cycle buckets
and every :class:`ForkReport` field, types included.
"""

from dataclasses import asdict

import pytest

from repro.common.constants import PAGE_SIZE, PTP_SPAN, ptp_index
from repro.common.events import ifetch, store
from repro.common.perms import MapFlags, Prot
from repro.hw.pagetable import Pte
from repro.kernel import fork as fork_module
from tests.conftest import make_small_runtime


def reference_stock_copy(kernel, parent, child, counters, report,
                         restrict_slots, include_preloaded_code) -> int:
    """The per-page copy pass the walk replaced, kept as the oracle."""
    cost = kernel.cost
    copied_total = 0
    parent_wp_needed = False

    for vma in parent.mm.vmas():
        if vma.flags.is_anonymous:
            pages = vma.page_range()
        elif include_preloaded_code and vma.zygote_preloaded and (
                vma.prot.executable):
            pages = vma.page_range()
        elif vma.anon_pages:
            pages = sorted(vma.anon_pages)
        else:
            continue

        if restrict_slots is not None:
            pages = [
                vpn for vpn in pages
                if ptp_index(vpn << 12) in restrict_slots
            ]
        else:
            pages = list(pages)
        report.cycles += len(pages) * cost.fork_traverse_per_page
        for vpn in pages:
            vaddr = vpn << 12
            slot_index = ptp_index(vaddr)
            looked_up = parent.mm.tables.lookup_pte(vaddr)
            if looked_up is None:
                continue
            parent_ptp, index, pte = looked_up

            needs_cow = vma.is_private_writable and Pte.is_writable(pte)
            if needs_cow:
                parent_ptp.set(index, Pte.write_protect(pte))
                pte = Pte.write_protect(pte)
                parent_wp_needed = True

            child_slot = child.mm.tables.slot(slot_index)
            if child_slot is None or child_slot.ptp is None:
                kernel.ptmgr.alloc_ptp(
                    child.mm, slot_index, counters,
                    domain=kernel.tlbshare.user_domain_for(child),
                    charge=lambda cycles: fork_module._charge_report(
                        report, cycles),
                )
                child_slot = child.mm.tables.slot(slot_index)
            child_slot.ptp.set(index, pte)
            child_slot.ptp.shadow[index] = parent_ptp.shadow[index]
            kernel.memory.frame(Pte.pfn(pte)).get()
            counters.bump("ptes_copied_fork")
            report.cycles += cost.pte_copy
            copied_total += 1

    if parent_wp_needed:
        kernel.flush_task_tlbs(parent)
        counters.bump("tlb_shootdowns")
        report.cycles += cost.tlb_flush_cost
    return copied_total


#: Where the extra mappings of :func:`enriched` go: a range the small
#: zygote leaves unmapped.
EXTRA_BASE = 0x6000_0000


def plain(config_name: str):
    """A small-calibration boot, forked from its zygote."""
    return make_small_runtime(config_name)


def enriched(config_name: str):
    """A small boot whose zygote also holds COW-ed file pages, a 64KB
    large-page code mapping and a partly populated stack that spans
    three level-1 slots and ends inside the last one."""
    runtime = make_small_runtime(config_name)
    kernel, zygote = runtime.kernel, runtime.zygote
    syscalls = kernel.syscalls
    file = kernel.page_cache.create_file("walk-test.so", 96)

    # Private writable file data: stores COW pages to anonymous frames,
    # which stock fork must copy (the ``anon_pages`` path).
    data = syscalls.mmap(zygote, 8 * PAGE_SIZE, Prot.READ | Prot.WRITE,
                         MapFlags.PRIVATE, file=file, file_page_offset=64,
                         addr=EXTRA_BASE)
    # Preloaded code mapped with 64KB large pages: under copy-PTE the
    # walk copies all sixteen entries of each chunk.
    code = syscalls.mmap(zygote, 32 * PAGE_SIZE, Prot.READ | Prot.EXEC,
                         MapFlags.PRIVATE, file=file,
                         addr=EXTRA_BASE + PTP_SPAN, zygote_preloaded=True,
                         use_large_pages=True)
    # A stack of two and a half slots, touched near its top and in its
    # middle slot only; under shared-PTP its slots fall back to the
    # stock copy, restricted to them.
    stack_start = EXTRA_BASE + 4 * PTP_SPAN + PTP_SPAN // 2
    stack = syscalls.mmap(zygote, 2 * PTP_SPAN + PTP_SPAN // 4,
                          Prot.READ | Prot.WRITE,
                          MapFlags.PRIVATE | MapFlags.ANONYMOUS
                          | MapFlags.GROWSDOWN, addr=stack_start)
    assert ptp_index(stack.end - 1) == ptp_index(stack.start) + 2
    assert stack.end % PTP_SPAN

    kernel.run(zygote, [store(data.start + i * PAGE_SIZE) for i in (0, 3, 5)]
               + [ifetch(code.start), ifetch(code.start + 17 * PAGE_SIZE)]
               + [store(stack.end - (i + 1) * PAGE_SIZE) for i in range(6)]
               + [store(stack.start + PTP_SPAN + i * PAGE_SIZE)
                  for i in (2, 40)])
    assert len(data.anon_pages) == 3
    assert code.use_large_pages
    return runtime


def state(runtime, child, report):
    """Everything fork writes, in comparable form."""
    kernel = runtime.kernel
    tables = {}
    for task in (runtime.zygote, child):
        tables[task.name] = [
            (index, list(slot.ptp.hw), list(slot.ptp.shadow),
             slot.ptp.valid_count, slot.ptp.frame.pfn, slot.need_copy,
             slot.domain)
            for index, slot in task.mm.tables.populated_slots()
        ]
    return {
        "tables": tables,
        "frames": sorted((frame.pfn, frame.kind.name, frame.mapcount)
                         for frame in kernel.memory.iter_frames()),
        "counters": [asdict(kernel.counters),
                     asdict(runtime.zygote.counters),
                     asdict(child.counters)],
        "stats": [vars(runtime.zygote.stats), vars(child.stats)],
        "report": {name: (type(value).__name__, value)
                   for name, value in asdict(report).items()},
    }


def fork_twice(build, config_name, monkeypatch):
    """``(walked, reference)`` states of two forks of the same boot."""
    runtime = build(config_name)
    child, report = runtime.fork_app("child")
    walked = state(runtime, child, report)

    runtime = build(config_name)
    with monkeypatch.context() as patch:
        patch.setattr(fork_module, "_stock_copy", reference_stock_copy)
        child, report = runtime.fork_app("child")
    return walked, state(runtime, child, report)


@pytest.mark.parametrize("config_name", ["stock", "copy-pte", "shared-ptp"])
@pytest.mark.parametrize("build", [plain, enriched])
def test_walk_matches_the_per_page_loop(build, config_name, monkeypatch):
    walked, reference = fork_twice(build, config_name, monkeypatch)
    assert walked["report"]["ptes_copied"][1] > 0
    for part in ("report", "counters", "stats", "frames", "tables"):
        assert walked[part] == reference[part], part


def test_enriched_forks_reach_every_path(monkeypatch):
    """The enriched boot drives each branch the comparison relies on."""
    walked, _ = fork_twice(enriched, "copy-pte", monkeypatch)
    child_ptes = [pte for _, hw, *_ in walked["tables"]["child"]
                  for pte in hw if pte & Pte.VALID]
    assert sum(1 for pte in child_ptes if pte & Pte.LARGE) == 32
    walked, _ = fork_twice(enriched, "shared-ptp", monkeypatch)
    report = walked["report"]
    # Only the stack's three slots fall back to the stock copy; two of
    # them are populated, and the last holds the top-of-stack pages.
    assert report["ptes_copied"][1] >= 8
    assert report["slots_shared"][1] > 0


class TestWalkValid:
    def make_tables(self):
        runtime = enriched("stock")
        return runtime.zygote.mm.tables

    def test_matches_per_page_lookups_on_any_range(self):
        tables = self.make_tables()
        first = (EXTRA_BASE >> 12) - 3
        end = ((EXTRA_BASE + 8 * PTP_SPAN) >> 12) + 5
        slots = {ptp_index(EXTRA_BASE) + 5, ptp_index(EXTRA_BASE) + 6}
        for restrict in (None, slots, set()):
            expected = []
            for vpn in range(first, end):
                if restrict is not None and vpn // 512 not in restrict:
                    continue
                looked_up = tables.lookup_pte(vpn << 12)
                if looked_up is not None:
                    expected.append((vpn // 512, looked_up[0],
                                     looked_up[1]))
            got = list(tables.walk_valid(first, end, restrict))
            assert [(s, id(p), i) for s, p, i in got] == [
                (s, id(p), i) for s, p, i in expected]
        assert list(tables.walk_valid(first, first)) == []

    def test_entries_may_be_cleared_as_they_are_visited(self):
        tables = self.make_tables()
        first = EXTRA_BASE >> 12
        end = (EXTRA_BASE + 8 * PTP_SPAN) >> 12
        before = sum(1 for _ in tables.walk_valid(first, end))
        cleared = 0
        for _, ptp, index in tables.walk_valid(first, end):
            ptp.clear(index)
            cleared += 1
        assert cleared == before > 0
        assert list(tables.walk_valid(first, end)) == []
