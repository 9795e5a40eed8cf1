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


#: Cache lines per 4KB page.
LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE

# A module-level reference: looking the member up on its enum class
# costs several times more, once per event and per kernel page.
_IFETCH = AccessType.IFETCH


class KernelPath(enum.Enum):
    """Kernel code regions, as (base virtual address, span bytes)."""

    FAULT = (0xC010_0000, 8 * PAGE_SIZE)
    CONTEXT_SWITCH = (0xC011_0000, 2 * PAGE_SIZE)
    SYSCALL = (0xC012_0000, 2 * PAGE_SIZE)
    BINDER = (0xC013_0000, 4 * PAGE_SIZE)
    #: I/O service paths (block, vfs, net) — what keeps the paper's
    #: I/O-heavy apps (Chrome Privilege, MX Player, WPS) in the kernel.
    IO = (0xC014_0000, 8 * PAGE_SIZE)

    def __init__(self, base: int, span: int) -> None:
        # The geometry every run of the path reads, computed once.
        #: Base virtual address of the path's code region.
        self.base = base
        #: Size of the path's code region in bytes.
        self.span = span
        #: The region's length in cache lines.
        self.lines = span // CACHE_LINE_SIZE
        #: Physical address of the region's first line (kernel VA -> PA
        #: is linear, so the region is one physical line run).
        self.paddr = Mmu.kernel_paddr(base)

    # Members are singletons, so identity hashing is exact; it keeps the
    # engine's per-call rotation lookup in C (Enum.__hash__ is Python).
    __hash__ = object.__hash__


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

        # Cycles go to the task and then to the core.  The stall buckets
        # are fixed here, so they are charged as attributes rather than
        # through CycleStats.charge, which looks its bucket up by name.
        task_stats = task.stats
        core_stats = core.stats
        if event.access is _IFETCH:
            cpi = self._kernel.cost.cycles_per_instruction
            task_stats.charge_instructions(event.count, cpi,
                                           kernel=event.kernel)
            core_stats.charge_instructions(event.count, cpi,
                                           kernel=event.kernel)
            stall = core.caches.fetch_run(page_paddr, event.lines)
            if stall:
                task_stats.l1i_stall += stall
                task_stats.total_cycles += stall
                core_stats.l1i_stall += stall
                core_stats.total_cycles += stall
        else:
            # Data bursts: the instructions performing them are counted
            # by the surrounding IFETCH events; only data stalls accrue.
            stall = core.caches.data_run(page_paddr, event.lines)
            if stall:
                task_stats.l1d_stall += stall
                task_stats.total_cycles += stall
                core_stats.l1d_stall += stall
                core_stats.total_cycles += stall

    # ------------------------------------------------------------------

    def _translate_resolving_faults(self, core, task: Task,
                                    event: AccessEvent):
        kernel = self._kernel
        mmu: Mmu = kernel.platform.mmu
        vaddr = event.vaddr
        access = event.access
        task_stats = task.stats
        core_stats = core.stats
        for _ in range(self.MAX_FAULT_RETRIES):
            result = mmu.translate(core, task, vaddr, access)
            stall = result.translation_stall
            if stall:
                if not result.walked:
                    task_stats.micro_tlb_stall += stall
                    core_stats.micro_tlb_stall += stall
                elif access is _IFETCH:
                    task_stats.itlb_stall += stall
                    core_stats.itlb_stall += stall
                else:
                    task_stats.dtlb_stall += stall
                    core_stats.dtlb_stall += stall
                task_stats.total_cycles += stall
                core_stats.total_cycles += stall
            fault = result.fault
            if fault is None:
                return result.entry
            tracer = kernel.tracer
            if tracer.enabled:
                tracer.emit(EventType.PAGE_FAULT, pid=task.pid,
                            vaddr=vaddr, cause=fault.value)
            outcome = kernel.fault_handler.handle(core, task, vaddr, access,
                                                  fault)
            overhead = outcome.overhead_cycles
            task_stats.fault_overhead += overhead
            task_stats.total_cycles += overhead
            core_stats.fault_overhead += overhead
            core_stats.total_cycles += overhead
            self.run_kernel_path(core, task, KernelPath.FAULT,
                                 outcome.kernel_instructions)
        raise SimulationError(
            f"access at {vaddr:#x} still faulting after "
            f"{self.MAX_FAULT_RETRIES} retries"
        )

    # ------------------------------------------------------------------

    def run_kernel_path(self, core, task: Task, path: KernelPath,
                        instructions: int) -> None:
        """Execute kernel-path instructions through the I-cache/TLB."""
        if instructions <= 0:
            return
        task_stats = task.stats
        core_stats = core.stats
        cpi = self._kernel.cost.cycles_per_instruction
        task_stats.charge_instructions(instructions, cpi, kernel=True)
        core_stats.charge_instructions(instructions, cpi, kernel=True)
        path_lines = path.lines
        lines = min(ceil(instructions / INSTRUCTIONS_PER_LINE), path_lines)
        rotation = self._path_rotation
        start = rotation[path]
        rotation[path] = (start + lines) % path_lines
        # The rotation may wrap around the path region: at most two
        # contiguous line runs.
        if start + lines <= path_lines:
            runs = ((start, lines),)
        else:
            head = path_lines - start
            runs = ((start, head), (0, lines - head))
        mmu: Mmu = self._kernel.platform.mmu
        base = path.base
        itlb = 0
        l1i = 0
        for run_start, run_lines in runs:
            for page in range(run_start // LINES_PER_PAGE,
                              (run_start + run_lines - 1) // LINES_PER_PAGE
                              + 1):
                # One translation covers every line in the page.
                itlb += mmu.translate(core, task, base + page * PAGE_SIZE,
                                      _IFETCH).translation_stall
            # Kernel VA -> PA is linear, so the whole run is one
            # physical line run.
            l1i += core.caches.fetch_run(
                path.paddr + run_start * CACHE_LINE_SIZE, run_lines)
        if itlb:
            task_stats.itlb_stall += itlb
            task_stats.total_cycles += itlb
            core_stats.itlb_stall += itlb
            core_stats.total_cycles += itlb
        if l1i:
            task_stats.l1i_stall += l1i
            task_stats.total_cycles += l1i
            core_stats.l1i_stall += l1i
            core_stats.total_cycles += l1i
