"""The package's public surface: imports, exports, documentation."""

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro.common", "repro.common.constants", "repro.common.cost",
    "repro.common.errors", "repro.common.events", "repro.common.perms",
    "repro.common.rng", "repro.common.stats",
    "repro.hw", "repro.hw.cache", "repro.hw.cpu", "repro.hw.domain",
    "repro.hw.memory", "repro.hw.mmu", "repro.hw.pagetable",
    "repro.hw.platform", "repro.hw.tlb",
    "repro.kernel", "repro.kernel.config", "repro.kernel.counters",
    "repro.kernel.engine", "repro.kernel.fault", "repro.kernel.fork",
    "repro.kernel.kernel", "repro.kernel.mm", "repro.kernel.pagecache",
    "repro.kernel.sched", "repro.kernel.syscalls", "repro.kernel.task",
    "repro.kernel.vma",
    "repro.core", "repro.core.ptshare", "repro.core.tlbshare",
    "repro.android", "repro.android.binder", "repro.android.catalog",
    "repro.android.layout", "repro.android.libraries",
    "repro.android.zygote",
    "repro.workloads", "repro.workloads.footprints",
    "repro.workloads.multitasking", "repro.workloads.profiles",
    "repro.workloads.session", "repro.workloads.tracegen",
    "repro.analysis", "repro.analysis.footprint",
    "repro.analysis.overlap", "repro.analysis.sparsity",
    "repro.experiments", "repro.experiments.ablations",
    "repro.experiments.bench", "repro.experiments.common",
    "repro.experiments.fork", "repro.experiments.ipc",
    "repro.experiments.launch", "repro.experiments.metricscells",
    "repro.experiments.motivation", "repro.experiments.observed",
    "repro.experiments.runner",
    "repro.experiments.steady",
    "repro.metrics", "repro.metrics.registry", "repro.metrics.collect",
    "repro.metrics.sampler", "repro.metrics.expose",
    "repro.metrics.summary",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_package_exports_resolve():
    for pkg_name in ("repro.common", "repro.hw", "repro.kernel",
                     "repro.android", "repro.workloads",
                     "repro.analysis"):
        package = importlib.import_module(pkg_name)
        for name in getattr(package, "__all__", []):
            assert getattr(package, name, None) is not None, (
                f"{pkg_name}.{name}"
            )


def test_version():
    assert repro.__version__ == "1.3.0"
