"""The ``repro.check`` subsystem: invariants, oracle, mutations, CLI.

Covers the contracts ``satr check`` is built on: a clean kernel passes
every invariant sweep, the checker wiring fires at op/run boundaries
with the documented throttling, each seeded mutation is detected
(mutation-kill), the semantic oracle equates clean shared/stock runs
and separates mutated ones, and serial vs parallel orchestrated runs
produce byte-identical payloads.
"""

import pytest

from repro.check import (
    InvariantChecker,
    InvariantViolation,
    apply_mutation,
    describe_mutation,
    diff_states,
    mutation_names,
    semantic_state,
    verify_kernel,
)
from repro.android.layout import LayoutMode
from repro.android.zygote import ZygoteCalibration, boot_android
from repro.common.constants import PAGE_SIZE
from repro.common.errors import SimulationError
from repro.common.events import load, store
from repro.common.perms import MapFlags, Prot
from repro.experiments.checking import run_check
from repro.experiments.common import QUICK
from repro.kernel.kernel import Kernel
from repro.orchestrate import Orchestrator
from tests.conftest import CONFIG_FACTORIES, make_kernel, make_small_runtime

ANON = MapFlags.PRIVATE | MapFlags.ANONYMOUS

ALL_MUTATIONS = ["double-ref", "leak-global", "skip-need-copy",
                 "skip-write-protect", "writable-zero"]


def make_checked_kernel(config_name="shared-ptp", checker=None,
                        **overrides):
    config = CONFIG_FACTORIES[config_name]()
    if overrides:
        config = config.with_(**overrides)
    return Kernel(config=config,
                  observers=() if checker is None else (checker,))


def make_checked_runtime(config_name="shared-ptp", checker=None,
                         **overrides):
    kernel = make_checked_kernel(config_name, checker=checker, **overrides)
    return boot_android(kernel, mode=LayoutMode.ORIGINAL,
                        calibration=ZygoteCalibration.small())


def forked_kernel(config_name="shared-ptp"):
    """A tiny two-task kernel with one shared anon slot."""
    kernel = make_kernel(config_name)
    parent = kernel.create_process("parent")
    heap = kernel.syscalls.mmap(parent, 4 * PAGE_SIZE,
                                Prot.READ | Prot.WRITE, ANON,
                                addr=0x50000000)
    kernel.run(parent, [store(heap.start + i * PAGE_SIZE)
                        for i in range(3)])
    child, _ = kernel.fork(parent, "child")
    return kernel, parent, child, heap


# ---------------------------------------------------------------------------
# verify_kernel on healthy and hand-corrupted kernels.
# ---------------------------------------------------------------------------

class TestVerifyKernel:
    @pytest.mark.parametrize("config", ["stock", "copy-pte", "shared-ptp",
                                        "shared-ptp-tlb"])
    def test_clean_runtime_passes(self, config):
        runtime = make_small_runtime(config)
        verify_kernel(runtime.kernel)  # Must not raise.

    def test_forked_kernel_passes(self):
        kernel, parent, child, heap = forked_kernel()
        verify_kernel(kernel)
        kernel.run(child, [store(heap.start)])  # COW unshare.
        verify_kernel(kernel)
        kernel.exit_task(child)
        verify_kernel(kernel)

    def test_extra_frame_ref_is_caught(self):
        kernel, parent, child, heap = forked_kernel()
        slot = parent.mm.tables.slot_for(heap.start)
        slot.ptp.frame.get()  # Corrupt: mapcount no longer == sharers.
        with pytest.raises(InvariantViolation):
            verify_kernel(kernel)

    def test_need_copy_desync_is_caught(self):
        kernel, parent, child, heap = forked_kernel()
        child.mm.tables.slot_for(heap.start).need_copy = False
        with pytest.raises(InvariantViolation):
            verify_kernel(kernel)

    def test_violation_is_a_simulation_error(self):
        assert issubclass(InvariantViolation, SimulationError)


# ---------------------------------------------------------------------------
# Checker wiring: gating, throttling, argument validation.
# ---------------------------------------------------------------------------

class TestCheckerWiring:
    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(every_events=-1)
        with pytest.raises(ValueError):
            InvariantChecker(run_gap_events=-1)

    def test_op_boundaries_always_sweep(self):
        checker = InvariantChecker()
        kernel = make_checked_kernel(checker=checker)
        task = kernel.create_process("app")
        kernel.syscalls.mmap(task, 4 * PAGE_SIZE, Prot.READ | Prot.WRITE,
                             ANON, addr=0x50000000)
        after_mmap = checker.checks_run
        assert after_mmap >= 1
        assert checker.last_site == "mmap"
        kernel.fork(task, "child")
        assert checker.checks_run > after_mmap
        assert checker.last_site == "fork"

    def test_run_boundary_respects_gap(self):
        checker = InvariantChecker(run_gap_events=10 ** 9)
        kernel = make_checked_kernel(checker=checker)
        task = kernel.create_process("app")
        heap = kernel.syscalls.mmap(task, 4 * PAGE_SIZE,
                                    Prot.READ | Prot.WRITE, ANON,
                                    addr=0x50000000)
        before = checker.checks_run
        kernel.run(task, [store(heap.start), load(heap.start)])
        assert checker.checks_run == before  # Gap not reached.

        eager = InvariantChecker(run_gap_events=0)
        kernel2 = make_checked_kernel(checker=eager)
        task2 = kernel2.create_process("app")
        heap2 = kernel2.syscalls.mmap(task2, 4 * PAGE_SIZE,
                                      Prot.READ | Prot.WRITE, ANON,
                                      addr=0x50000000)
        before = eager.checks_run
        kernel2.run(task2, [store(heap2.start)])
        assert eager.checks_run > before

    def test_every_events_sweeps_per_event(self):
        checker = InvariantChecker(every_events=1,
                                   run_gap_events=10 ** 9)
        kernel = make_checked_kernel(checker=checker)
        task = kernel.create_process("app")
        heap = kernel.syscalls.mmap(task, 4 * PAGE_SIZE,
                                    Prot.READ | Prot.WRITE, ANON,
                                    addr=0x50000000)
        before = checker.checks_run
        kernel.run(task, [store(heap.start + i * PAGE_SIZE)
                          for i in range(3)])
        assert checker.checks_run >= before + 3


# ---------------------------------------------------------------------------
# Mutation registry and restoration.
# ---------------------------------------------------------------------------

class TestMutations:
    def test_registry_contents(self):
        assert mutation_names() == ALL_MUTATIONS
        for name in ALL_MUTATIONS:
            assert describe_mutation(name)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            with apply_mutation("no-such-bug"):
                pass

    def test_none_is_a_no_op(self):
        from repro.hw.pagetable import AddressSpaceTables

        original = AddressSpaceTables.install
        with apply_mutation(None):
            assert AddressSpaceTables.install is original

    def test_patch_restored_on_exit(self):
        from repro.hw.pagetable import AddressSpaceTables

        original = AddressSpaceTables.install
        with apply_mutation("double-ref"):
            assert AddressSpaceTables.install is not original
        assert AddressSpaceTables.install is original

    def test_patch_restored_on_error(self):
        from repro.hw.pagetable import PageTablePage

        original = PageTablePage.write_protect_all
        with pytest.raises(RuntimeError):
            with apply_mutation("skip-write-protect"):
                raise RuntimeError("boom")
        assert PageTablePage.write_protect_all is original


# ---------------------------------------------------------------------------
# Mutation-kill: every invariant mutation must trip the checker.
# ---------------------------------------------------------------------------

class TestMutationKill:
    @pytest.mark.parametrize("name", ["double-ref", "skip-write-protect",
                                      "skip-need-copy", "leak-global"])
    def test_invariant_mutations_caught(self, name):
        checker = InvariantChecker(run_gap_events=0)
        with apply_mutation(name):
            with pytest.raises(SimulationError):
                runtime = make_checked_runtime("shared-ptp",
                                               checker=checker)
                runtime.fork_app("victim")
                verify_kernel(runtime.kernel)

    def test_writable_zero_caught_by_oracle(self):
        """The oracle-only mutation: invariants stay green, but shared
        and stock runs stop agreeing on page contents."""
        stock = make_small_runtime("stock")
        with apply_mutation("writable-zero"):
            mutated = make_small_runtime("shared-ptp")
            verify_kernel(mutated.kernel)  # Invariants are blind to it.
        diffs = diff_states(semantic_state(mutated.kernel),
                            semantic_state(stock.kernel),
                            "shared", "stock")
        assert diffs


# ---------------------------------------------------------------------------
# The differential oracle on clean kernels.
# ---------------------------------------------------------------------------

class TestSemanticOracle:
    def test_shared_and_stock_boots_agree(self):
        shared = make_small_runtime("shared-ptp")
        stock = make_small_runtime("stock")
        assert diff_states(semantic_state(shared.kernel),
                           semantic_state(stock.kernel),
                           "shared", "stock") == []

    def test_state_is_deterministic(self):
        a = make_small_runtime("shared-ptp")
        b = make_small_runtime("shared-ptp")
        assert semantic_state(a.kernel) == semantic_state(b.kernel)

    def test_divergent_write_is_visible(self):
        """A genuinely different store shows up — the oracle is not
        vacuously equal."""
        kernel_a, parent_a, _, heap_a = forked_kernel()
        kernel_b, parent_b, _, heap_b = forked_kernel()
        kernel_a.run(parent_a, [store(heap_a.start + 3 * PAGE_SIZE)])
        diffs = diff_states(semantic_state(kernel_a),
                            semantic_state(kernel_b), "a", "b")
        assert diffs

    def test_frame_numbers_never_leak(self):
        """Resolutions are canonical labels, so two kernels with
        different allocation orders still compare equal."""
        kernel, parent, child, heap = forked_kernel()
        state = semantic_state(kernel)
        for task_state in state["tasks"].values():
            for _, *resolution in task_state["pages"]:
                kind = resolution[0]
                assert kind in ("anon", "file", "anomaly")
                if kind == "anon":
                    assert resolution[1] < 100  # Label, not a pfn.


# ---------------------------------------------------------------------------
# Orchestrated runs and the CLI (slow: full quick-scale workloads).
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestOrchestratedCheck:
    def test_serial_and_parallel_payloads_identical(self, warm_workers):
        serial = run_check("fork", QUICK, orchestrator=Orchestrator())
        parallel = run_check(
            "fork", QUICK, orchestrator=Orchestrator(executor=warm_workers))
        assert serial.payloads == parallel.payloads
        assert serial.ok

    def test_check_cli_passes_clean(self):
        from repro.experiments import runner

        code = runner.check_main(["fork", "--scale", "quick",
                                  "--no-cache"])
        assert code == 0

    def test_check_cli_fails_injected(self, capsys):
        from repro.experiments import runner

        code = runner.check_main(["fork", "--scale", "quick",
                                  "--inject", "skip-write-protect",
                                  "--no-cache"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
