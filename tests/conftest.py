"""Shared fixtures.

Booting a full-calibration Android runtime takes ~2s, so tests that
only *read* runtime state share session-scoped boots; tests that mutate
(fork apps, run traces) either use the small calibration or build their
own kernel.  The serial-vs-parallel tests share one 2-worker local
pool (``warm_workers``), so its workers keep their boot images across
tests as they do across one command's targets.
"""

import pytest

from repro.kernel.config import (
    copy_pte_config,
    shared_ptp_config,
    shared_ptp_tlb_config,
    stock_config,
)
from repro.kernel.kernel import Kernel
from repro.android.layout import LayoutMode
from repro.android.zygote import ZygoteCalibration, boot_android

CONFIG_FACTORIES = {
    "stock": stock_config,
    "copy-pte": copy_pte_config,
    "shared-ptp": shared_ptp_config,
    "shared-ptp-tlb": shared_ptp_tlb_config,
}


def make_kernel(config_name: str = "shared-ptp", **overrides) -> Kernel:
    config = CONFIG_FACTORIES[config_name]()
    if overrides:
        config = config.with_(**overrides)
    return Kernel(config=config)


def make_small_runtime(config_name: str = "shared-ptp",
                       mode: LayoutMode = LayoutMode.ORIGINAL,
                       **overrides):
    """A fast-booting runtime with the scaled-down zygote."""
    kernel = make_kernel(config_name, **overrides)
    return boot_android(kernel, mode=mode,
                        calibration=ZygoteCalibration.small())


@pytest.fixture
def kernel() -> Kernel:
    """A fresh shared-PTP kernel with an empty system."""
    return make_kernel("shared-ptp")


@pytest.fixture
def stock_kernel() -> Kernel:
    return make_kernel("stock")


@pytest.fixture
def tlb_kernel() -> Kernel:
    return make_kernel("shared-ptp-tlb")


@pytest.fixture
def small_runtime():
    """A fresh, small, shared-PTP Android runtime (mutable per test)."""
    return make_small_runtime("shared-ptp")


@pytest.fixture(scope="session")
def full_runtime_readonly():
    """Full-calibration shared-PTP runtime; DO NOT mutate in tests."""
    kernel = make_kernel("shared-ptp")
    return boot_android(kernel)


@pytest.fixture(scope="session")
def full_stock_runtime_readonly():
    """Full-calibration stock runtime; DO NOT mutate in tests."""
    kernel = make_kernel("stock")
    return boot_android(kernel)


@pytest.fixture(scope="session")
def warm_workers():
    """A 2-worker local warm-worker executor for the whole test run.

    Fails the requesting test if the workers could not start: a pool
    that fell back to serial would make every serial-vs-parallel
    comparison vacuous.
    """
    from repro.distrib import local_workers

    fallbacks = []
    with local_workers(2, fallbacks.append) as executor:
        assert fallbacks == [], fallbacks
        yield executor
