"""The boot image behind ``build_runtime``.

``build_runtime`` keeps the pickled bytes of the last runtime it booted
unobserved, keyed by the kernel config without ``fork_policy``, the
layout mode and the seed, and hands every unobserved call a copy
restored from it.  These tests pin the facts that make that sound:

* the fork policy leaves no trace in a booted runtime, and nothing else
  that the key keeps does;
* a restored runtime behaves as a fresh boot, cell for cell, and each
  restore is independent of what was done to earlier ones;
* threads sharing the one slot each get a runtime of their own key;
* observed builds, builds under a policy registered at runtime and the
  overhead benches' timed runs neither read nor replace the image;
* a restored kernel sees the caller's config everywhere it is held;
* the pieces the image depends on (slotted frames, int id counters)
  pickle compactly and without warnings.

A restored runtime does not re-pickle to a fresh boot's bytes (the
unpickler interns attribute-name strings), so restored and fresh
runtimes are compared with :func:`structure`, not by their bytes.
"""

import enum
import functools
import hashlib
import json
import pickle
import sys
import threading
import types
import warnings
from pathlib import Path

import pytest

from repro.android.layout import LayoutMode
from repro.android.zygote import (
    DEFAULT_CALIBRATION,
    ZygoteCalibration,
    boot_android,
)
from repro.experiments import bench, common
from repro.experiments.checking import check_cells
from repro.experiments.common import (
    CONFIG_FACTORIES,
    QUICK,
    Scale,
    build_runtime,
)
from repro.experiments.fork import TABLE4_KERNELS, table4_cells
from repro.experiments.ipc import ipc_cells
from repro.hw.memory import Frame, FrameKind
from repro.kernel.config import ForkPolicy
from repro.kernel.kernel import Kernel
from repro.kernel.pagecache import FileObject
from repro.orchestrate.cells import canonical_json, execute_cell
from repro.policy import BaselinePolicy, register_policy, unregister_policy
from repro.policy.victima import VictimaPolicy
from repro.trace import Tracer

from tests.conftest import make_small_runtime


SMALL = ZygoteCalibration.small()


@pytest.fixture
def no_image():
    """Start from an empty image; put the previous one back afterwards."""
    saved = common._boot_image
    common._boot_image = None
    try:
        yield
    finally:
        common._boot_image = saved


@pytest.fixture
def small_boots(no_image, monkeypatch):
    """``build_runtime`` boots at the small calibration; the list of the
    kernels it booted."""
    booted = []

    def small_boot(kernel, mode, seed):
        booted.append(kernel)
        return boot_android(kernel, mode=mode, seed=seed, calibration=SMALL)

    monkeypatch.setattr(common, "boot_android", small_boot)
    return booted


def _poisoned_image():
    """The key of a default ``shared-ptp`` boot, with bytes that cannot
    be restored: a call that reads this image raises."""
    config = CONFIG_FACTORIES["shared-ptp"]()
    return ((config.with_(fork_policy=None), LayoutMode.ORIGINAL, 7),
            b"not a pickle")


def fresh_boot(config_name: str, asid_enabled: bool = True,
               mode: LayoutMode = LayoutMode.ORIGINAL,
               policy: str = "baseline",
               calibration: ZygoteCalibration = DEFAULT_CALIBRATION):
    """A runtime booted directly, bypassing the image."""
    config = CONFIG_FACTORIES[config_name]().with_(
        asid_enabled=asid_enabled, policy=policy)
    return boot_android(Kernel(config=config), mode=mode,
                        calibration=calibration)


@functools.lru_cache(maxsize=None)
def masked_boot(config_name: str, asid_enabled: bool = True,
                mode: LayoutMode = LayoutMode.ORIGINAL,
                policy: str = "baseline",
                calibration: ZygoteCalibration = SMALL) -> bytes:
    """The pickled bytes of a fresh boot, ``fork_policy`` masked."""
    runtime = fresh_boot(config_name, asid_enabled, mode, policy,
                         calibration)
    runtime.kernel.config.fork_policy = None  # Our own throwaway boot.
    return pickle.dumps(runtime, pickle.HIGHEST_PROTOCOL)


_ATOMS = (str, bytes, int, float, bool, type(None), enum.Enum, type,
          types.FunctionType, types.BuiltinFunctionType)


def structure(root) -> list:
    """A runtime's object graph as a flat token list.

    Atoms (strings, numbers, enum members, classes, functions) are
    emitted by value and tuples by content; every other object by the
    order in which the walk first met it, then its class and fields.
    Two graphs give equal lists exactly when they hold the same values
    with the same aliasing, whatever their string identities.
    """
    tokens: list = []
    seen: dict = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMS):
            tokens.append(obj)
            continue
        if isinstance(obj, tuple):
            tokens.append(("tuple", len(obj)))
            stack.extend(reversed(obj))
            continue
        if id(obj) in seen:
            tokens.append(("ref", seen[id(obj)]))
            continue
        seen[id(obj)] = len(seen)
        if isinstance(obj, types.MethodType):
            tokens.append(("method", obj.__func__))
            stack.append(obj.__self__)
            continue
        if isinstance(obj, dict):
            items = list(obj.items())
        elif isinstance(obj, (list, set, frozenset)):
            items = list(obj) if isinstance(obj, list) else sorted(obj)
        else:
            state = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    if hasattr(obj, name):
                        state[name] = getattr(obj, name)
            items = sorted(state.items())
        tokens.append((type(obj), len(items)))
        stack.extend(reversed(items))
    return tokens


# ---------------------------------------------------------------------------
# The key: only the fork policy leaves it.
# ---------------------------------------------------------------------------

#: (asid_enabled, layout mode, translation policy) boots to compare.
KEY_CASES = [
    (True, LayoutMode.ORIGINAL, "baseline"),
    (False, LayoutMode.ORIGINAL, "baseline"),
    (True, LayoutMode.ALIGNED_2MB, "baseline"),
    (True, LayoutMode.ORIGINAL, "victima"),
]


class TestImageKey:
    @pytest.mark.parametrize("case", KEY_CASES,
                             ids=lambda c: f"asid={c[0]}-{c[1].name}-{c[2]}")
    @pytest.mark.parametrize("config_name", ["stock", "copy-pte"])
    def test_fork_policy_leaves_no_trace_in_the_boot(self, config_name,
                                                     case):
        assert masked_boot(config_name, *case) == masked_boot(
            "shared-ptp", *case)

    def test_share_tlb_changes_the_boot(self):
        assert masked_boot("shared-ptp-tlb") != masked_boot("shared-ptp")

    def test_asid_mode_changes_the_boot(self):
        assert masked_boot("shared-ptp", False) != masked_boot("shared-ptp")

    def test_a_matching_key_reads_the_image(self, no_image):
        common._boot_image = _poisoned_image()
        for config_name in ("stock", "copy-pte", "shared-ptp"):
            with pytest.raises(pickle.UnpicklingError):
                build_runtime(config_name)

    @pytest.mark.parametrize("call", [
        {"config_name": "shared-ptp-tlb"},
        {"config_name": "stock", "asid_enabled": False},
        {"config_name": "stock", "mode": LayoutMode.ALIGNED_2MB},
        {"config_name": "stock", "seed": 8},
        {"config_name": "stock", "policy": "victima"},
    ], ids=["share_tlb", "asid", "mode", "seed", "policy"])
    def test_any_other_key_boots_and_replaces_the_image(self, no_image,
                                                        call):
        image = common._boot_image = _poisoned_image()
        build_runtime(**call)
        assert common._boot_image is not image

    @pytest.mark.slow
    def test_table4_boots_pickle_alike_at_full_calibration(self):
        assert len({masked_boot(config_name, calibration=DEFAULT_CALIBRATION)
                    for config_name in TABLE4_KERNELS}) == 1


# ---------------------------------------------------------------------------
# Restores behave as fresh boots.
# ---------------------------------------------------------------------------

def _cell(cells, cell_id):
    return next(cell for cell in cells if cell.cell_id == cell_id).to_dict()


def _locked_digest(target: str, name: str) -> str:
    """A cell's payload digest in the results lock (fresh boots)."""
    lock = json.loads(Path(__file__).with_name("results_lock.json")
                      .read_text())
    return lock["cells"][target][name]


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class TestRestore:
    """The results lock was recorded from fresh boots, one per cell."""

    def test_table4_cells_match_fresh_boots(self, no_image):
        cells = table4_cells(QUICK, seed=7)
        for cell_id in TABLE4_KERNELS:  # One boot, then two restores.
            assert _digest(execute_cell(_cell(cells, cell_id))) == (
                _locked_digest("fork", f"table4/{cell_id}"))

    def test_ipc_cells_match_fresh_boots(self, no_image):
        cells = ipc_cells(QUICK, seed=7)
        for cell_id in ("asid-stock", "asid-shared-ptp"):
            assert _digest(execute_cell(_cell(cells, cell_id))) == (
                _locked_digest("ipc", f"ipc/{cell_id}"))

    def test_restores_are_independent(self, no_image):
        fresh = structure(fresh_boot("shared-ptp"))
        first = build_runtime("shared-ptp")
        assert structure(first) == fresh
        for index in range(3):
            child, _ = first.fork_app(f"app-{index}")
            first.kernel.exit_task(child)
        assert structure(first) != fresh
        assert structure(build_runtime("shared-ptp")) == fresh

    def test_restored_kernel_sees_the_requested_config(self, no_image):
        build_runtime("shared-ptp")
        kernel = build_runtime("stock").kernel
        assert kernel.config == CONFIG_FACTORIES["stock"]()
        assert kernel.config.fork_policy is ForkPolicy.STOCK
        assert kernel.tlbshare._config is kernel.config
        assert kernel.ptmgr._config is kernel.config
        _, report = build_runtime("shared-ptp").fork_app("app")
        assert report.slots_shared > 0


class TestThreads:
    def test_concurrent_builds_get_their_own_key(self, no_image,
                                                 monkeypatch):
        """``satr serve`` runs cells on several threads, all sharing the
        one slot: every build must still get a runtime of its own key.
        Kernel and boot are stubbed out, so the threads interleave
        thousands of times in a second."""
        monkeypatch.setattr(common, "Kernel", types.SimpleNamespace)
        monkeypatch.setattr(common, "gc", types.SimpleNamespace(
            collect=lambda: 0))
        monkeypatch.setattr(common, "boot_android",
                            lambda kernel, mode, seed: types.SimpleNamespace(
                                kernel=kernel, mode=mode, seed=seed))
        # Runs of three calls share a key: restores and replacements mix.
        calls = [(config_name, asid, seed)
                 for asid in (True, False) for seed in (7, 8)
                 for config_name in ("stock", "copy-pte", "shared-ptp")]
        wrong = []

        def worker(offset: int) -> None:
            for index in range(5000):
                config_name, asid, seed = calls[(offset + index) % len(calls)]
                runtime = build_runtime(config_name, asid_enabled=asid,
                                        seed=seed)
                want = CONFIG_FACTORIES[config_name]().with_(
                    asid_enabled=asid)
                if (runtime.kernel.config, runtime.seed) != (want, seed):
                    wrong.append((config_name, asid, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


# ---------------------------------------------------------------------------
# Builds that boot fresh.
# ---------------------------------------------------------------------------

class _Observer:
    def after_op(self, kernel, site):
        pass

    def on_event(self, kernel):
        pass

    def after_run(self, kernel):
        pass


class TestObservedBuilds:
    def test_tracer_neither_reads_nor_replaces_the_image(self, no_image):
        image = common._boot_image = _poisoned_image()
        tracer = Tracer()
        runtime = build_runtime("shared-ptp", tracer=tracer)
        assert runtime.kernel.tracer is tracer
        assert common._boot_image is image

    def test_observers_neither_read_nor_replace_the_image(self, no_image):
        image = common._boot_image = _poisoned_image()
        observer = _Observer()
        runtime = build_runtime("stock", observers=(observer,))
        assert runtime.kernel.observers == (observer,)
        assert common._boot_image is image

    def test_injected_check_cell_leaves_the_image_alone(self, no_image):
        image = common._boot_image = _poisoned_image()
        cells = check_cells("fork", QUICK, seed=7, inject="leak-global")
        payload = execute_cell(_cell(cells, "shared-ptp+leak-global"))
        assert payload["violations"]
        assert common._boot_image is image


class TestRegisteredPolicies:
    """A policy registered at runtime boots fresh: its class may not
    pickle (one defined in a function does not), and another class may
    be registered under its name later."""

    def test_local_policy_class_builds_twice(self, small_boots):
        class LocalPolicy(BaselinePolicy):
            name = "local-for-test"

        image = common._boot_image = _poisoned_image()
        register_policy(LocalPolicy)
        try:
            for _ in range(2):
                runtime = build_runtime("shared-ptp", policy=LocalPolicy.name)
                assert type(runtime.kernel.policy) is LocalPolicy
        finally:
            unregister_policy(LocalPolicy.name)
        assert len(small_boots) == 2
        assert common._boot_image is image

    def test_a_name_registered_again_gets_the_new_class(self, small_boots):
        for label in ("First", "Second"):
            cls = type(label, (BaselinePolicy,), {"name": "local-for-test"})
            register_policy(cls)
            try:
                runtime = build_runtime("stock", policy=cls.name)
            finally:
                unregister_policy(cls.name)
            assert type(runtime.kernel.policy) is cls

    def test_a_registration_shadowing_a_builtin_boots_fresh(self,
                                                            small_boots):
        build_runtime("stock", policy="victima")
        image = common._boot_image

        class Shadow(VictimaPolicy):
            pass

        register_policy(Shadow)
        try:
            runtime = build_runtime("stock", policy="victima")
        finally:
            unregister_policy("victima")
        assert type(runtime.kernel.policy) is Shadow
        assert common._boot_image is image
        runtime = build_runtime("stock", policy="victima")
        assert type(runtime.kernel.policy) is VictimaPolicy
        assert len(small_boots) == 2


#: One fork round: the timed runs below only need to boot and finish.
TINY = Scale(name="tiny", fork_rounds=1)


class TestTimedRuns:
    """``satr bench`` and ``benchmarks/test_trace_bench.py`` time an
    unobserved arm against an observed one.  Both arms must boot fresh:
    an unobserved arm that restored the image would time a restore
    against a boot, and the overhead gates could no longer fail."""

    def test_sampler_off_and_on_arms_boot_alike(self, small_boots):
        image = common._boot_image = _poisoned_image()
        bench.measure_target("fork", TINY, runs=2)
        assert [bool(kernel.observers) for kernel in small_boots] == [
            False, False, True, True]
        assert common._boot_image is image

    @pytest.mark.parametrize("tracer_factory", [lambda: None, Tracer],
                             ids=["off", "on"])
    def test_tracer_arms_boot_alike(self, small_boots, tracer_factory):
        image = common._boot_image = _poisoned_image()
        tracer = tracer_factory()
        _, runtime = bench.timed_run("fork", TINY, 7, tracer=tracer)
        assert small_boots == [runtime.kernel]
        assert common._boot_image is image


# ---------------------------------------------------------------------------
# What the image is made of.
# ---------------------------------------------------------------------------

class TestPickling:
    def test_frames_have_no_dict(self):
        frame = Frame(pfn=3, kind=FrameKind.FILE, file_key=(1, 2)).get()
        assert not hasattr(frame, "__dict__")
        restored = pickle.loads(pickle.dumps(frame))
        assert not hasattr(restored, "__dict__")
        assert (restored.pfn, restored.kind, restored.mapcount,
                restored.file_key) == (3, FrameKind.FILE, 1, (1, 2))

    @pytest.mark.parametrize("cls, plain", [
        (Kernel, True),
        (FileObject, True),  # A frozen dataclass.
        (Frame, False),  # Slotted, with its own __reduce__.
        (FrameKind, False),  # Enum members pickle by name.
        (types.SimpleNamespace, False),  # Not a repro class.
    ], ids=lambda value: getattr(value, "__name__", str(value)))
    def test_only_plain_repro_classes_restore_by_attribute(self, cls, plain):
        assert common._is_plain(cls) is plain

    def test_restored_runtime_continues_every_id_sequence(self):
        runtime = make_small_runtime("shared-ptp")
        kernel = runtime.kernel
        expected = (max(kernel.tasks) + 1,
                    max(task.asid for task in kernel.tasks.values()) + 1,
                    kernel.memory.stats.allocated + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = pickle.loads(pickle.dumps(runtime,
                                                 pickle.HIGHEST_PROTOCOL))
        restored_ids = _next_ids(restored)
        assert restored_ids == _next_ids(runtime)
        assert restored_ids[:3] == expected


def _next_ids(runtime):
    """The pid, ASID, PFN and file id the runtime hands out next.

    The frame comes first: a new task's page directory takes frames.
    """
    kernel = runtime.kernel
    frame = kernel.memory.allocate(FrameKind.ANON)
    task = kernel.allocate_task("next")
    file = kernel.page_cache.create_file("next.so", 4)
    return task.pid, task.asid, frame.pfn, file.file_id
