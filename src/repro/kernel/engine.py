"""The execution engine: drives access events through MMU, TLBs, caches.

For each :class:`~repro.common.events.AccessEvent` the engine

1. translates the address (micro TLB -> main TLB -> walk), charging
   translation stalls to the instruction- or data-side bucket;
2. resolves any faults through the kernel's handlers, retrying the
   translation afterwards — fault handling *executes kernel
   instructions through the simulated I-cache*, so fault elimination
   shows up as both fewer instructions and fewer I-cache stalls, the
   paper's launch-time effect;
3. performs the burst: instructions are charged at the base CPI and the
   burst's cache lines are touched through the hierarchy.

Kernel code paths (fault handler, context switch, syscalls, the binder
driver) occupy fixed kernel-text regions so their footprints contend in
the I-cache and TLB exactly like application code.
"""

import enum
from math import ceil

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SHIFT, PAGE_SIZE
from repro.common.errors import SimulationError
from repro.common.events import AccessEvent, AccessType
from repro.hw.mmu import Mmu
from repro.kernel.task import Task
from repro.trace import EventType

#: Instructions per 32-byte cache line (4-byte ARM instructions).
INSTRUCTIONS_PER_LINE = CACHE_LINE_SIZE // 4


class KernelPath(enum.Enum):
    """Kernel code regions, as (base virtual address, span bytes)."""

    FAULT = (0xC010_0000, 8 * PAGE_SIZE)
    CONTEXT_SWITCH = (0xC011_0000, 2 * PAGE_SIZE)
    SYSCALL = (0xC012_0000, 2 * PAGE_SIZE)
    BINDER = (0xC013_0000, 4 * PAGE_SIZE)
    #: I/O service paths (block, vfs, net) — what keeps the paper's
    #: I/O-heavy apps (Chrome Privilege, MX Player, WPS) in the kernel.
    IO = (0xC014_0000, 8 * PAGE_SIZE)

    @property
    def base(self) -> int:
        """Base virtual address of the path's code region."""
        return self.value[0]

    @property
    def span(self) -> int:
        """Size of the path's code region in bytes."""
        return self.value[1]


class ExecutionEngine:
    """Bound to one kernel; executes traces for its tasks."""

    MAX_FAULT_RETRIES = 8

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        # Successive invocations of a kernel path enter at rotating
        # offsets, modelling the different branches (filemap, rmap,
        # anon, COW) real handlers take; this is what makes kernel code
        # contend with application code in the L1-I cache.
        self._path_rotation = {path: 0 for path in KernelPath}

    # ------------------------------------------------------------------

    def run(self, task: Task, events, core_id: int = None) -> None:
        """Schedule ``task`` and execute a sequence of events."""
        kernel = self._kernel
        core = kernel.schedule(task, core_id)
        observers = kernel.observers
        if observers:
            for event in events:
                self.execute_event(core, task, event)
                for observer in observers:
                    observer.on_event(kernel)
            for observer in observers:
                observer.after_run(kernel)
        else:
            for event in events:
                self.execute_event(core, task, event)

    def execute_event(self, core, task: Task, event: AccessEvent) -> None:
        """Run one access burst: translate, fault, fetch."""
        entry = self._translate_resolving_faults(core, task, event)
        page_paddr = (
            entry.pfn + ((event.vaddr >> PAGE_SHIFT) - entry.vpn)
        ) << PAGE_SHIFT

        if event.access is AccessType.IFETCH:
            self._charge_both(core, task, "instructions", event.count,
                              kernel=event.kernel)
            stall = core.caches.fetch_run(page_paddr, event.lines)
            if stall:
                self._charge_cycles(core, task, "l1i_stall", stall)
        else:
            # Data bursts: the instructions performing them are counted
            # by the surrounding IFETCH events; only data stalls accrue.
            stall = core.caches.data_run(page_paddr, event.lines)
            if stall:
                self._charge_cycles(core, task, "l1d_stall", stall)

    # ------------------------------------------------------------------

    def _translate_resolving_faults(self, core, task: Task,
                                    event: AccessEvent):
        mmu: Mmu = self._kernel.platform.mmu
        for _ in range(self.MAX_FAULT_RETRIES):
            result = mmu.translate(core, task, event.vaddr, event.access)
            if result.translation_stall:
                if result.walked:
                    bucket = (
                        "itlb_stall"
                        if event.access is AccessType.IFETCH
                        else "dtlb_stall"
                    )
                else:
                    bucket = "micro_tlb_stall"
                self._charge_cycles(core, task, bucket,
                                    result.translation_stall)
            if result.ok:
                return result.entry
            tracer = self._kernel.tracer
            if tracer.enabled:
                tracer.emit(EventType.PAGE_FAULT, pid=task.pid,
                            vaddr=event.vaddr, cause=result.fault.value)
            outcome = self._kernel.fault_handler.handle(
                core, task, event.vaddr, event.access, result.fault
            )
            self._charge_cycles(core, task, "fault_overhead",
                                outcome.overhead_cycles)
            self.run_kernel_path(core, task, KernelPath.FAULT,
                                 outcome.kernel_instructions)
        raise SimulationError(
            f"access at {event.vaddr:#x} still faulting after "
            f"{self.MAX_FAULT_RETRIES} retries"
        )

    # ------------------------------------------------------------------

    def run_kernel_path(self, core, task: Task, path: KernelPath,
                        instructions: int) -> None:
        """Execute kernel-path instructions through the I-cache/TLB."""
        if instructions <= 0:
            return
        self._charge_both(core, task, "instructions", instructions,
                          kernel=True)
        path_base, path_span = path.value
        path_lines = path_span // CACHE_LINE_SIZE
        lines = min(ceil(instructions / INSTRUCTIONS_PER_LINE), path_lines)
        start = self._path_rotation[path]
        self._path_rotation[path] = (start + lines) % path_lines
        mmu: Mmu = self._kernel.platform.mmu
        lines_per_page = PAGE_SIZE // CACHE_LINE_SIZE
        itlb = 0
        l1i = 0
        # The rotation may wrap around the path region: at most two
        # contiguous line runs.
        segments = []
        if start + lines <= path_lines:
            segments.append((start, lines))
        else:
            segments.append((start, path_lines - start))
            segments.append((0, lines - (path_lines - start)))
        for seg_start, seg_len in segments:
            first_page = seg_start // lines_per_page
            last_page = (seg_start + seg_len - 1) // lines_per_page
            for page in range(first_page, last_page + 1):
                # One translation covers every line in the page.
                vaddr = path_base + page * PAGE_SIZE
                result = mmu.translate(core, task, vaddr, AccessType.IFETCH)
                itlb += result.translation_stall
            # Kernel VA -> PA is linear (pfn = KERNEL_PFN_BASE + vpn),
            # so the whole segment is one physical line run.
            seg_vaddr = path_base + seg_start * CACHE_LINE_SIZE
            l1i += core.caches.fetch_run(mmu.kernel_paddr(seg_vaddr),
                                         seg_len)
        if itlb:
            self._charge_cycles(core, task, "itlb_stall", itlb)
        if l1i:
            self._charge_cycles(core, task, "l1i_stall", l1i)

    # ------------------------------------------------------------------

    def _charge_cycles(self, core, task: Task, bucket: str,
                       cycles: float) -> None:
        task.stats.charge(bucket, cycles)
        core.stats.charge(bucket, cycles)

    def _charge_both(self, core, task: Task, field: str, count: int,
                     kernel: bool) -> None:
        cpi = self._kernel.cost.cycles_per_instruction
        task.stats.charge_instructions(count, cpi, kernel=kernel)
        core.stats.charge_instructions(count, cpi, kernel=kernel)
