"""Shared experiment plumbing: scales, kernel construction, formatting."""

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence

from repro.kernel.config import (
    KernelConfig,
    copy_pte_config,
    shared_ptp_config,
    shared_ptp_tlb_config,
    stock_config,
)
from repro.kernel.kernel import Kernel
from repro.android.layout import LayoutMode
from repro.android.zygote import AndroidRuntime, boot_android

#: The kernel configurations the paper evaluates, by short name.
CONFIG_FACTORIES = {
    "stock": stock_config,
    "copy-pte": copy_pte_config,
    "shared-ptp": shared_ptp_config,
    "shared-ptp-tlb": shared_ptp_tlb_config,
}


@dataclass(frozen=True)
class Scale:
    """Experiment sizing: paper-scale runs are minutes, quick is seconds."""

    name: str
    #: Helloworld launch repetitions per configuration (paper: 100).
    launch_rounds: int = 30
    #: Fork repetitions for the minimum-of-N measurement (paper: 40).
    fork_rounds: int = 10
    #: Warm rounds per app in the steady-state sweep (paper: ~10).
    steady_rounds: int = 2
    #: Binder invocations measured (paper: 100,000 on hardware).
    ipc_invocations: int = 300
    #: Apps included in the per-app sweeps (None = all eleven).
    apps: Optional[Sequence[str]] = None
    revisit_passes: int = 1
    base_burst: int = 2000


QUICK = Scale(name="quick", launch_rounds=4, fork_rounds=4,
              steady_rounds=1, ipc_invocations=60,
              apps=("Angrybirds", "Google Calendar", "WPS"))
DEFAULT = Scale(name="default")
PAPER = Scale(name="paper", launch_rounds=100, fork_rounds=40,
              steady_rounds=4, ipc_invocations=1000)

SCALES: Dict[str, Scale] = {s.name: s for s in (QUICK, DEFAULT, PAPER)}

#: The seed every experiment uses unless ``--seed`` overrides it.
DEFAULT_SEED = 7


def scale_to_params(scale: Scale) -> Dict[str, Any]:
    """Flatten a Scale into the JSON dict cell parameters carry."""
    flat = {f.name: getattr(scale, f.name) for f in fields(Scale)}
    if flat["apps"] is not None:
        flat["apps"] = list(flat["apps"])
    return flat


def scale_from_params(params: Dict[str, Any]) -> Scale:
    """Rebuild a Scale from :func:`scale_to_params` output."""
    flat = dict(params)
    if flat.get("apps") is not None:
        flat["apps"] = tuple(flat["apps"])
    return Scale(**flat)


def params_with_policy(params: Dict[str, Any],
                       policy: str) -> Dict[str, Any]:
    """Add a ``policy`` key to cell params only when non-default.

    Baseline cells must keep their pre-policy params (and therefore
    digests); any other policy keys its own cache entries.
    """
    if policy != "baseline":
        params["policy"] = policy
    return params


def build_runtime(
    config_name: str,
    mode: LayoutMode = LayoutMode.ORIGINAL,
    asid_enabled: bool = True,
    seed: int = 7,
    tracer=None,
    observers: Sequence = (),
    policy: str = "baseline",
) -> AndroidRuntime:
    """A booted Android runtime under one kernel configuration.

    ``tracer`` (a :class:`repro.trace.Tracer`) and ``observers`` (such
    as a :class:`repro.check.InvariantChecker` or a
    :class:`repro.metrics.Sampler`) are attached *before* boot, so they
    cover the kernel's whole lifetime: trace counts can be compared
    against the global counters, boot runs under the invariant sweeps,
    and a metrics series starts at boot.  ``policy`` names a
    :mod:`repro.policy` translation policy — unlike those runtime hooks
    it becomes a config field (it changes semantics) and therefore
    enters cache digests.
    """
    try:
        config: KernelConfig = CONFIG_FACTORIES[config_name]()
    except KeyError:
        raise KeyError(
            f"unknown config {config_name!r}; known: "
            f"{sorted(CONFIG_FACTORIES)}"
        ) from None
    config = config.with_(asid_enabled=asid_enabled, policy=policy)
    kernel = Kernel(config=config, tracer=tracer, observers=observers)
    return boot_android(kernel, mode=mode, seed=seed)


# ---------------------------------------------------------------------------
# Plain-text rendering.
# ---------------------------------------------------------------------------

def format_table(headers: List[str], rows: List[List[str]],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def pct(value: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.1f}%"


def ratio_vs(value: float, baseline: float) -> str:
    """Format a value as a percentage of a baseline."""
    if baseline == 0:
        return "n/a"
    return f"{100.0 * value / baseline:.1f}%"
