"""The execution engine and kernel lifecycle / accounting invariants."""

import pytest

from repro.android.zygote import ZygoteCalibration, boot_android
from repro.common.constants import PAGE_SIZE
from repro.common.events import AccessEvent, AccessType, ifetch, load, store
from repro.common.perms import MapFlags, Prot
from repro.hw.memory import FrameKind
from repro.kernel.config import shared_ptp_config
from repro.kernel.engine import KernelPath
from repro.kernel.kernel import Kernel
from tests.conftest import make_kernel

ANON = MapFlags.PRIVATE | MapFlags.ANONYMOUS


class TestEventValidation:
    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            AccessEvent(AccessType.IFETCH, 0, count=0)

    def test_lines_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AccessEvent(AccessType.IFETCH, 0, count=1, lines=999)
        with pytest.raises(ValueError):
            AccessEvent(AccessType.IFETCH, 0, count=1, lines=0)

    def test_lines_bounds_accepted(self):
        assert AccessEvent(AccessType.IFETCH, 0, count=1, lines=1).lines == 1
        assert AccessEvent(AccessType.IFETCH, 0, count=1,
                           lines=128).lines == 128

    def test_helpers(self):
        assert ifetch(0x1000).access is AccessType.IFETCH
        assert load(0x1000).access is AccessType.LOAD
        assert store(0x1000).access is AccessType.STORE


class TestInstructionAccounting:
    def make_env(self):
        kernel = make_kernel("shared-ptp")
        task = kernel.create_process("proc")
        vma = kernel.syscalls.mmap(task, 8 * PAGE_SIZE,
                                   Prot.READ | Prot.EXEC | Prot.WRITE,
                                   ANON)
        return kernel, task, vma

    def test_ifetch_counts_instructions(self):
        kernel, task, vma = self.make_env()
        kernel.run(task, [store(vma.start), ifetch(vma.start, count=500)])
        # 500 user instructions plus fault-handler kernel instructions.
        user = task.stats.instructions - task.stats.kernel_instructions
        assert user == 500

    def test_kernel_flag_routes_to_kernel_bucket(self):
        kernel, task, vma = self.make_env()
        kernel.run(task, [])  # Pay the context-switch path up front.
        before = task.stats.kernel_instructions
        event = AccessEvent(AccessType.IFETCH, 0xC0140000, count=300,
                            kernel=True)
        kernel.run(task, [event])
        assert task.stats.kernel_instructions - before == 300

    def test_load_does_not_count_instructions(self):
        kernel, task, vma = self.make_env()
        kernel.run(task, [store(vma.start)])
        before = task.stats.instructions - task.stats.kernel_instructions
        kernel.run(task, [load(vma.start, count=100)])
        after = task.stats.instructions - task.stats.kernel_instructions
        assert after == before

    def test_stats_charged_to_core_and_task(self):
        kernel, task, vma = self.make_env()
        kernel.run(task, [store(vma.start)], core_id=2)
        core = kernel.platform.cores[2]
        # Execution-side buckets mirror each other (syscall cycles from
        # the setup mmap were charged to the task before it had a core).
        assert core.stats.instructions == task.stats.instructions
        assert core.stats.l1i_stall == task.stats.l1i_stall
        assert core.stats.fault_overhead == task.stats.fault_overhead

    def test_fault_retry_resolves(self):
        kernel, task, vma = self.make_env()
        # A store to a fresh anon page: translation fault then success.
        kernel.run(task, [store(vma.start)])
        assert task.counters.anon_faults == 1

    def test_kernel_path_rotation_advances(self):
        kernel, task, vma = self.make_env()
        core = kernel.schedule(task)
        engine = kernel.engine
        start_before = engine._path_rotation[KernelPath.FAULT]
        engine.run_kernel_path(core, task, KernelPath.FAULT, 800)
        assert engine._path_rotation[KernelPath.FAULT] != start_before

    def test_kernel_path_zero_instructions_noop(self):
        kernel, task, vma = self.make_env()
        core = kernel.schedule(task)
        before = task.stats.instructions
        kernel.engine.run_kernel_path(core, task, KernelPath.FAULT, 0)
        assert task.stats.instructions == before

    def test_kernel_path_rotation_wraps_region(self):
        """A burst crossing the region end splits into two segments but
        charges exactly once."""
        kernel, task, vma = self.make_env()
        core = kernel.schedule(task)
        engine = kernel.engine
        span_lines = KernelPath.SYSCALL.value[1] // 32
        # Park the rotation near the end of the region.
        engine._path_rotation[KernelPath.SYSCALL] = span_lines - 3
        before = task.stats.kernel_instructions
        engine.run_kernel_path(core, task, KernelPath.SYSCALL, 100)
        assert task.stats.kernel_instructions - before == 100
        # 100 instructions = 13 lines: 3 at the end + 10 wrapped.
        assert engine._path_rotation[KernelPath.SYSCALL] == 10

    def test_kernel_path_capped_at_region_size(self):
        kernel, task, vma = self.make_env()
        core = kernel.schedule(task)
        fetches_before = core.caches.l1i.stats.accesses
        kernel.engine.run_kernel_path(core, task, KernelPath.SYSCALL,
                                      10**6)
        fetched_lines = core.caches.l1i.stats.accesses - fetches_before
        assert fetched_lines == KernelPath.SYSCALL.value[1] // 32


class TestKernelLifecycle:
    def test_pids_and_asids_unique(self):
        kernel = make_kernel()
        tasks = [kernel.create_process(f"p{i}") for i in range(5)]
        assert len({t.pid for t in tasks}) == 5
        assert len({t.asid for t in tasks}) == 5

    def test_exit_releases_all_frames(self):
        kernel = make_kernel("shared-ptp")
        task = kernel.create_process("proc")
        vma = kernel.syscalls.mmap(task, 16 * PAGE_SIZE,
                                   Prot.READ | Prot.WRITE, ANON)
        kernel.run(task, [store(vma.start + i * PAGE_SIZE)
                          for i in range(16)])
        kernel.exit_task(task)
        assert kernel.memory.live_frames(FrameKind.ANON) == 1  # Zero page.
        assert kernel.memory.live_frames(FrameKind.PTP) == 0

    def test_exit_clears_core_assignment(self):
        kernel = make_kernel()
        task = kernel.create_process("proc")
        core = kernel.schedule(task)
        kernel.exit_task(task)
        assert core.current_task is None

    def test_zero_frame_survives_everything(self):
        kernel = make_kernel()
        task = kernel.create_process("proc")
        vma = kernel.syscalls.mmap(task, PAGE_SIZE,
                                   Prot.READ | Prot.WRITE, ANON)
        kernel.run(task, [load(vma.start)])
        kernel.exit_task(task)
        assert kernel.zero_frame.mapcount >= 1

    def test_counter_scope_hits_global_and_task(self):
        kernel = make_kernel()
        task = kernel.create_process("proc")
        vma = kernel.syscalls.mmap(task, PAGE_SIZE,
                                   Prot.READ | Prot.WRITE, ANON)
        kernel.run(task, [store(vma.start)])
        assert kernel.counters.anon_faults == 1
        assert task.counters.anon_faults == 1

    def test_frame_refcounts_balanced_after_fork_and_exit(self):
        """No frame leaks across a full fork/run/exit cycle."""
        kernel = make_kernel("shared-ptp")
        parent = kernel.create_process("parent")
        file = kernel.page_cache.create_file("lib", 16)
        code = kernel.syscalls.mmap(parent, 16 * PAGE_SIZE,
                                    Prot.READ | Prot.EXEC,
                                    MapFlags.PRIVATE, file=file)
        heap = kernel.syscalls.mmap(parent, 8 * PAGE_SIZE,
                                    Prot.READ | Prot.WRITE, ANON)
        kernel.run(parent, [ifetch(code.start), store(heap.start)])
        for generation in range(3):
            child, _ = kernel.fork(parent, f"child{generation}")
            kernel.run(child, [store(heap.start + PAGE_SIZE),
                               ifetch(code.start + PAGE_SIZE)])
            kernel.exit_task(child)
        kernel.exit_task(parent)
        # Only the zero frame and page-cache file frames remain.
        assert kernel.memory.live_frames(FrameKind.PTP) == 0
        assert kernel.memory.live_frames(FrameKind.ANON) == 1
        for frame_pfn in range(1, 1 + kernel.memory.stats.allocated):
            pass  # Frame-level invariants enforced by put()/free() already.

    def test_snapshot_delta_cyclestats(self):
        kernel = make_kernel()
        task = kernel.create_process("proc")
        vma = kernel.syscalls.mmap(task, PAGE_SIZE,
                                   Prot.READ | Prot.WRITE, ANON)
        snap = task.stats.snapshot()
        kernel.run(task, [store(vma.start)])
        delta = task.stats.delta_since(snap)
        assert delta.total_cycles > 0
        assert delta.total_cycles <= task.stats.total_cycles


class _LoggingObserver:
    """Appends ``(name, call)`` to a shared log for every kernel call."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def after_op(self, kernel, site):
        self.log.append((self.name, site))

    def on_event(self, kernel):
        self.log.append((self.name, "event"))

    def after_run(self, kernel):
        self.log.append((self.name, "run"))

    def finalize(self, kernel):
        self.log.append((self.name, "final"))


class TestObservers:
    def test_observers_see_every_site_in_attachment_order(self):
        assert Kernel().observers == ()

        log = []
        kernel = Kernel(config=shared_ptp_config(),
                        observers=(_LoggingObserver("first", log),
                                   _LoggingObserver("second", log)))
        boot_android(kernel, calibration=ZygoteCalibration.small())
        boot_calls = [call for name, call in log if name == "first"]
        assert boot_calls.count("exec") == 1
        del log[:]

        task = kernel.create_process("app")
        heap = kernel.syscalls.mmap(task, 4 * PAGE_SIZE,
                                    Prot.READ | Prot.WRITE, ANON,
                                    addr=0x50000000)
        kernel.run(task, [store(heap.start + i * PAGE_SIZE)
                          for i in range(3)])
        kernel.syscalls.mprotect(task, heap.start, PAGE_SIZE, Prot.READ)
        child, _ = kernel.fork(task, "child")
        kernel.exit_task(child)
        kernel.syscalls.munmap(task, heap.start, PAGE_SIZE)
        calls = ["mmap", "event", "event", "event", "run", "mprotect",
                 "fork", "exit", "munmap"]
        assert log == [(name, call) for call in calls
                       for name in ("first", "second")]
