"""The kernel facade: the composition root tying every subsystem together.

A :class:`Kernel` owns one :class:`~repro.hw.platform.Platform` and one
:class:`~repro.kernel.config.KernelConfig`, and exposes the operations
scenarios use: process creation, fork, the VM syscalls, scheduling, and
trace execution.  Experiments instantiate one kernel per configuration
(stock / copy-PTE / shared-PTP / shared-PTP&TLB) and run identical
workloads against each.
"""

from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.constants import NUM_ASIDS
from repro.common.errors import SimulationError
from repro.hw.memory import Frame, FrameKind
from repro.hw.pagetable import PageTablePage, Pte
from repro.hw.platform import Platform
from repro.kernel.config import KernelConfig
from repro.kernel.counters import Counters, CounterScope
from repro.kernel.engine import ExecutionEngine, KernelPath
from repro.kernel.fault import FaultHandler
from repro.kernel.fork import do_fork
from repro.kernel.mm import MmStruct
from repro.kernel.pagecache import PageCache
from repro.kernel.sched import Scheduler
from repro.kernel.syscalls import SyscallInterface
from repro.kernel.task import Task, TaskState
from repro.core.ptshare import PageTableManager
from repro.core.tlbshare import TlbSharePolicy
from repro.policy import policy_class
from repro.trace import NULL_TRACER


class Kernel:
    """One simulated kernel instance managing one platform."""

    def __init__(self, platform: Optional[Platform] = None,
                 config: Optional[KernelConfig] = None,
                 tracer=None, observers: Sequence = ()) -> None:
        self.platform = platform or Platform()
        self.config = config or KernelConfig()
        policy_cls = policy_class(self.config.policy)
        if policy_cls.implied_config:
            # A policy may imply config fields (nodomain-flush implies
            # domain_support=False) so one registry name selects the
            # whole design; apply before validation and TlbSharePolicy.
            self.config = self.config.with_(**policy_cls.implied_config)
        self.config.validate()
        self.cost = self.platform.cost
        self.memory = self.platform.memory

        #: Structured event tracing.  The tracer is a *runtime* wiring
        #: concern, deliberately not a ``KernelConfig`` field: config
        #: stays pure JSON (it feeds the orchestrator's cache digests).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(self.sim_time)
        self.platform.mmu.tracer = self.tracer
        for core in self.platform.cores:
            core.main_tlb.tracer = self.tracer

        #: Lifecycle observers (the invariant checker, the metrics
        #: sampler), runtime wiring like the tracer.  Each is called at
        #: the six lifecycle sites (``after_op``), per executed event
        #: (``on_event``) and per ``run`` (``after_run``), in attachment
        #: order; every site guards on the tuple being non-empty.  See
        #: :mod:`repro.experiments.observed` for the protocol.
        self.observers = tuple(observers)

        #: The translation policy (see :mod:`repro.policy`).  Unlike the
        #: tracer and observers above it IS selected by config — it
        #: changes semantics, so it must enter cache digests.  Hardware
        #: objects call through instance attributes, mirroring the
        #: tracer wiring.
        self.policy = policy_cls(self)
        self.platform.mmu.policy = self.policy
        for core in self.platform.cores:
            core.main_tlb.policy = self.policy

        self.counters = Counters()
        self.page_cache = PageCache(self.memory)
        #: The shared zero page (read-only mapped for untouched
        #: anonymous pages); holds a permanent reference so it is never
        #: freed.
        self.zero_frame: Frame = self.memory.allocate(FrameKind.ANON).get()

        self.tlbshare = TlbSharePolicy(self.config)
        self.ptmgr = PageTableManager(
            self.memory, self.cost, self.config,
            tlb_flush_task=self.flush_task_tlbs,
            tlb_flush_all=self.platform.flush_all_tlbs,
            tracer=self.tracer,
        )
        self.ptmgr.policy = self.policy
        self.fault_handler = FaultHandler(self)
        self.syscalls = SyscallInterface(self)
        self.scheduler = Scheduler(self)
        self.engine = ExecutionEngine(self)

        self.tasks: Dict[int, Task] = {}
        #: The next fresh pid and ASID.  Plain ints, not
        #: ``itertools.count``: a booted kernel is pickled as a boot
        #: image, and counters stop pickling in Python 3.14.
        self._next_pid = 1
        self._next_asid = 1
        #: ASIDs released by exited tasks, safe to reuse because exit
        #: flushes the task's TLB entries on every core.
        self._free_asids: List[int] = []

    # ------------------------------------------------------------------
    # Process lifecycle.
    # ------------------------------------------------------------------

    def allocate_task(self, name: str, parent: Optional[Task] = None) -> Task:
        """Create a task with a fresh, empty address space."""
        pid = self._next_pid
        self._next_pid += 1
        if self._free_asids:
            asid = self._free_asids.pop()
        else:
            asid = self._next_asid
            self._next_asid += 1
        if asid >= NUM_ASIDS:
            # More than 255 *live* address spaces: real kernels roll the
            # ASID generation over with a full flush; scenarios here
            # never need that, so treat it as misuse.
            raise SimulationError("ASID space exhausted")
        task = Task(
            pid=pid, name=name,
            mm=MmStruct(self.memory, owner_pid=pid),
            asid=asid, parent=parent,
        )
        self.tasks[pid] = task
        return task

    def create_process(self, name: str) -> Task:
        """Create a standalone process (init, daemons, the zygote)."""
        return self.allocate_task(name)

    def exec_zygote(self, task: Task) -> None:
        """Mark ``task`` as the zygote (the exec-time flag of 3.2.2)."""
        self.tlbshare.on_exec(task, is_zygote_binary=True)
        if self.observers:
            self.notify("exec")

    def fork(self, parent: Task, name: str) -> "tuple[Task, ForkReport]":
        """Fork a task under the configured policy."""
        result = do_fork(self, parent, name)
        policy = self.policy
        if policy.active:
            policy.on_fork(parent, result[0])
        if self.observers:
            self.notify("fork")
        return result

    def exit_task(self, task: Task) -> None:
        """Tear down a task's address space (Section 3.1.2, case 5)."""
        counters = self.counter_scope(task)
        for slot_index, _ in list(task.mm.tables.populated_slots()):
            self.ptmgr.release_slot(
                task, slot_index, counters, free_frames=self._drop_ptp_frames
            )
        task.mm.release_pgd()
        self.flush_task_tlbs(task)
        for core in self.platform.cores:
            if core.current_task is task:
                core.current_task = None
        task.state = TaskState.EXITED
        self._free_asids.append(task.asid)
        if self.observers:
            self.notify("exit")

    def notify(self, site: str) -> None:
        """Tell every observer a lifecycle operation just finished."""
        for observer in self.observers:
            observer.after_op(self, site)

    # ------------------------------------------------------------------
    # Scheduling / execution.
    # ------------------------------------------------------------------

    def schedule(self, task: Task, core_id: Optional[int] = None):
        """Ensure ``task`` is running on a core; returns the core."""
        if core_id is None:
            core_id = task.pinned_core if task.pinned_core is not None else 0
        core = self.platform.cores[core_id]
        report = self.scheduler.switch_to(core, task)
        if report.switched:
            self.engine.run_kernel_path(
                core, task, KernelPath.CONTEXT_SWITCH,
                report.kernel_instructions,
            )
        return core

    def run(self, task: Task, events: Iterable,
            core_id: Optional[int] = None) -> None:
        """Execute a trace of access events as ``task``."""
        self.engine.run(task, events, core_id)

    # ------------------------------------------------------------------
    # PTE/frame reference management.
    # ------------------------------------------------------------------

    def install_pte(self, ptp: PageTablePage, index: int, frame: Frame,
                    writable: bool = False, executable: bool = False,
                    global_: bool = False, large: bool = False) -> None:
        """Install a PTE, taking a mapping reference on the frame."""
        frame.get()
        ptp.set(index, Pte.make(
            frame.pfn, writable=writable, user=True, global_=global_,
            executable=executable, large=large,
        ))
        policy = self.policy
        if policy.active:
            policy.on_pte_write(ptp, index)

    def put_frame(self, frame: Frame) -> None:
        """Drop a mapping reference; frees anonymous frames at zero.

        File frames belong to the page cache and outlive their mappings;
        the zero frame holds a permanent reference.
        """
        remaining = frame.put()
        if remaining == 0 and frame.kind is FrameKind.ANON and (
                frame is not self.zero_frame):
            self.memory.free(frame)

    def take_frame_refs(self, ptp: PageTablePage) -> None:
        """Take one reference per valid PTE (after a bulk PTE copy)."""
        for _, pte in ptp.iter_valid():
            self.memory.frame(Pte.pfn(pte)).get()

    def _drop_ptp_frames(self, ptp: PageTablePage) -> None:
        """Clear every PTE of a PTP, dropping the frame references."""
        for index, pte in list(ptp.iter_valid()):
            ptp.clear(index)
            self.put_frame(self.memory.frame(Pte.pfn(pte)))

    # ------------------------------------------------------------------
    # TLB maintenance.
    # ------------------------------------------------------------------

    def flush_task_tlbs(self, task: Task) -> None:
        """Drop one task's TLB entries on every core."""
        for core in self.platform.cores:
            core.flush_tlb_asid(task.asid)

    # ------------------------------------------------------------------
    # Simulated time.
    # ------------------------------------------------------------------

    def sim_time(self) -> float:
        """Total cycles accumulated across cores (the trace clock).

        Cores advance independently, so the sum is a monotonically
        non-decreasing global timeline suitable for stamping events.
        """
        return sum(core.stats.total_cycles for core in self.platform.cores)

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    def counter_scope(self, task: Optional[Task]) -> CounterScope:
        """Global counters plus the acting task's counters."""
        return CounterScope(
            self.counters, task.counters if task is not None else None
        )

    # ------------------------------------------------------------------
    # Introspection used by experiments.
    # ------------------------------------------------------------------

    def shared_ptp_count(self, task: Task) -> int:
        """Number of a task's PTPs currently shared."""
        return self.ptmgr.shared_slot_count(task.mm)

    def live_tasks(self) -> List[Task]:
        """Every task that has not exited."""
        return [
            t for t in self.tasks.values() if t.state is not TaskState.EXITED
        ]
