"""mmap / munmap / mprotect, with the paper's unshare hooks.

Section 3.1.2: a system call that creates, destroys, or modifies a
memory region inside the range of a shared PTP must unshare every PTP
the range touches *before* touching PTEs (cases 2-4), because otherwise
the modification would become visible to — or corrupt permissions of —
the other sharers.
"""

from typing import Optional

from repro.common.constants import PAGE_SIZE, page_align_up
from repro.common.errors import VmaError
from repro.common.perms import MapFlags, Prot
from repro.hw.pagetable import Pte
from repro.kernel.pagecache import FileObject
from repro.kernel.task import Task
from repro.kernel.vma import Vma


class SyscallInterface:
    """The VM syscalls, bound to one kernel instance."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    # ------------------------------------------------------------------

    def mmap(
        self,
        task: Task,
        length: int,
        prot: Prot,
        flags: MapFlags,
        file: Optional[FileObject] = None,
        file_page_offset: int = 0,
        addr: Optional[int] = None,
        alignment: int = PAGE_SIZE,
        tag=None,
        zygote_preloaded: bool = False,
        use_large_pages: bool = False,
    ) -> Vma:
        """Map a new region; returns the VMA."""
        kernel = self._kernel
        task.stats.charge("syscall_cycles", kernel.cost.syscall_base)
        length = page_align_up(length)
        if use_large_pages:
            alignment = max(alignment, 64 * 1024)
        if addr is None:
            addr = task.mm.get_unmapped_area(length, alignment)
        vma = Vma(
            start=addr,
            end=addr + length,
            prot=prot,
            flags=flags,
            file=file,
            file_page_offset=file_page_offset,
            tag=tag,
            zygote_preloaded=zygote_preloaded,
            use_large_pages=use_large_pages,
        )
        if kernel.tlbshare.should_mark_global(task, vma):
            vma.global_ = True
        # Section 3.1.2, case 3: a new region inside a shared PTP's
        # range unshares it immediately (new PTEs must not leak into
        # other sharers' address spaces).
        self._unshare_range(task, vma.start, vma.end, "new-region")
        task.mm.insert_vma(vma)
        if kernel.observers:
            kernel.notify("mmap")
        return vma

    # ------------------------------------------------------------------

    def munmap(self, task: Task, start: int, length: int) -> int:
        """Unmap a range; returns the number of PTEs cleared."""
        kernel = self._kernel
        task.stats.charge("syscall_cycles", kernel.cost.syscall_base)
        end = start + page_align_up(length)
        # Section 3.1.2, case 4: unshare before clearing level-2 PTEs.
        self._unshare_range(task, start, end, "region-free")
        removed = task.mm.carve_range(start, end)
        cleared = 0
        for vma in removed:
            pages = vma.page_range()
            for _, ptp, index in task.mm.tables.walk_valid(pages.start,
                                                           pages.stop):
                pte = ptp.clear(index)
                kernel.put_frame(kernel.memory.frame(Pte.pfn(pte)))
                cleared += 1
        if cleared:
            kernel.flush_task_tlbs(task)
            kernel.counter_scope(task).bump("tlb_shootdowns")
        if kernel.observers:
            kernel.notify("munmap")
        return cleared

    # ------------------------------------------------------------------

    def mprotect(self, task: Task, start: int, length: int,
                 prot: Prot) -> None:
        """Change protection over a range (must be fully mapped)."""
        kernel = self._kernel
        task.stats.charge("syscall_cycles", kernel.cost.syscall_base)
        end = start + page_align_up(length)
        affected = task.mm.find_intersecting(start, end)
        if not affected:
            raise VmaError(f"mprotect of unmapped range {start:#x}")
        # Section 3.1.2, case 2: region modification unshares every PTP
        # the range spans.
        self._unshare_range(task, start, end, "region-modify")

        for vma in affected:
            inner = self._isolate(task, vma, start, end)
            removing_write = inner.prot.writable and not prot.writable
            inner.prot = prot
            if removing_write:
                self._write_protect_range(task, inner)
        kernel.flush_task_tlbs(task)
        kernel.counter_scope(task).bump("tlb_shootdowns")
        if kernel.observers:
            kernel.notify("mprotect")

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _unshare_range(self, task: Task, start: int, end: int,
                       trigger: str) -> None:
        kernel = self._kernel
        kernel.ptmgr.ensure_range_private(
            task, start, end, trigger, kernel.counter_scope(task),
            copy_frame_refs=kernel.take_frame_refs,
            charge=lambda cycles: task.stats.charge("syscall_cycles", cycles),
        )

    def _isolate(self, task: Task, vma: Vma, start: int, end: int) -> Vma:
        """Split ``vma`` so the part inside ``[start, end)`` is its own
        VMA; returns that inner VMA."""
        task.mm.remove_vma(vma)
        if vma.start < start:
            outside, vma = vma.split_at(start)
            task.mm.insert_vma(outside)
        if vma.end > end:
            vma, outside = vma.split_at(end)
            task.mm.insert_vma(outside)
        task.mm.insert_vma(vma)
        return vma

    def _write_protect_range(self, task: Task, vma: Vma) -> None:
        pages = vma.page_range()
        for _, ptp, index in task.mm.tables.walk_valid(pages.start,
                                                       pages.stop):
            pte = ptp.get(index)
            if Pte.is_writable(pte):
                ptp.set(index, Pte.write_protect(pte))
