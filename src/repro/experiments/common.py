"""Shared experiment plumbing: scales, kernel construction, formatting."""

import copyreg
import gc
import io
import pickle
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from repro.policy import is_builtin_policy

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


#: The boot image: ``(key, pickled runtime)`` for the last runtime
#: :func:`build_runtime` booted for the image, or None.
#: One slot (~0.9 MB): a second saves no boot in ``satr table4`` or in
#: a served cold ``fork`` then ``ipc`` (DESIGN.md §17).
_boot_image: Optional[Tuple[tuple, bytes]] = None

#: Per class: is an instance's state exactly its ``__dict__``?
_plain_classes: Dict[type, bool] = {}


def _is_plain(cls: type) -> bool:
    """A ``repro`` class with default pickling and no ``__slots__``."""
    plain = _plain_classes.get(cls)
    if plain is None:
        plain = _plain_classes[cls] = (
            all(base is object or base.__module__.startswith("repro.")
                for base in cls.__mro__)
            and not hasattr(cls, "__slots__")
            and cls.__reduce_ex__ is object.__reduce_ex__
            and cls.__reduce__ is object.__reduce__
            and getattr(cls, "__getstate__", None)
            is getattr(object, "__getstate__", None)
            and not hasattr(cls, "__setstate__"))
    return plain


def _set_attributes(obj: Any, state: Dict[str, Any]) -> None:
    """The state setter of :class:`_ImagePickler`'s reductions."""
    for name, value in state.items():
        object.__setattr__(obj, name, value)


class _ImagePickler(pickle.Pickler):
    """Pickles a runtime so that a restore sets attributes one by one.

    The default restore writes each instance's ``__dict__`` directly,
    and so does the default pickling of the original: either way
    CPython 3.11 moves the attributes out of the instance's compact
    inline storage into a dict, and attribute access on the hot path
    gets slower (the ``steady`` workload ran 15-20% slower on such a
    runtime).  Setting the attributes one by one on a fresh instance
    keeps the compact storage.
    """

    def reducer_override(self, obj):
        cls = type(obj)
        if not _is_plain(cls):
            return NotImplemented
        return (copyreg.__newobj__, (cls,), obj.__dict__, None, None,
                _set_attributes)


def build_runtime(
    config_name: str,
    mode: LayoutMode = LayoutMode.ORIGINAL,
    asid_enabled: bool = True,
    seed: int = 7,
    tracer=None,
    observers: Sequence = (),
    policy: str = "baseline",
    fresh: bool = False,
) -> AndroidRuntime:
    """A booted Android runtime under one kernel configuration.

    Boot is deterministic in the kernel config, the layout ``mode`` and
    the ``seed``, and the fork policy is read only at fork, so runtimes
    booted under ``stock``, ``copy-pte`` and ``shared-ptp`` are the same
    state.  The last boot is therefore kept as a boot image: its
    pickled bytes, keyed by the config without ``fork_policy``, the
    mode and the seed.  A call whose key does not match boots and
    replaces the image; the call gets a private copy restored from the
    image, under its own fork policy.  The calls named below boot
    fresh instead.

    ``tracer`` (a :class:`repro.trace.Tracer`) and ``observers`` (such
    as a :class:`repro.check.InvariantChecker` or a
    :class:`repro.metrics.Sampler`) are attached *before* boot, so they
    cover the kernel's whole lifetime: trace counts can be compared
    against the global counters, boot runs under the invariant sweeps,
    and a metrics series starts at boot.  Such a call always boots
    fresh and neither reads nor replaces the image.  ``policy`` names a
    :mod:`repro.policy` translation policy — unlike those runtime hooks
    it becomes a config field (it changes semantics) and therefore
    enters cache digests and the image key.  A policy registered at
    runtime (:func:`repro.policy.register_policy`) may not pickle and
    may be replaced under its name, so it boots fresh too, as does a
    call with ``fresh=True`` (timing comparisons whose arms must do the
    same work).
    """
    global _boot_image
    try:
        config: KernelConfig = CONFIG_FACTORIES[config_name]()
    except KeyError:
        raise KeyError(
            f"unknown config {config_name!r}; known: "
            f"{sorted(CONFIG_FACTORIES)}"
        ) from None
    config = config.with_(asid_enabled=asid_enabled, policy=policy)
    if (fresh or tracer is not None or observers
            or not is_builtin_policy(config.policy)):
        kernel = Kernel(config=config, tracer=tracer, observers=observers)
        return boot_android(kernel, mode=mode, seed=seed)
    key = (config.with_(fork_policy=None), mode, seed)
    image = _boot_image
    if image is None or image[0] != key:
        booted = boot_android(Kernel(config=config), mode=mode, seed=seed)
        buffer = io.BytesIO()
        _ImagePickler(buffer, pickle.HIGHEST_PROTOCOL).dump(booted)
        image = _boot_image = (key, buffer.getvalue())
        # Pickling moved the booted runtime's attributes into dicts, so
        # the caller gets a restored copy too; free the original (a
        # cyclic graph) before the copy is allocated.
        del booted
        gc.collect()
    runtime: AndroidRuntime = pickle.loads(image[1])
    # The kernel, its TlbSharePolicy and its PageTableManager share one
    # config object, so this one assignment reaches all three.
    runtime.kernel.config.fork_policy = config.fork_policy
    return runtime


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
