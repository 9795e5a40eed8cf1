"""One observed-run path: the workload registry behind ``satr trace``,
``check``, ``metrics``, ``compare`` and ``bench``.

Each *target* (fork / launch / steady / ipc) names one representative
workload and the two kernel configurations it runs under: the sharing
configuration the paper proposes for it, and stock fork.
:func:`run_observed` boots a runtime with the caller's tracer and
observers attached, drives the target's workload and finalizes the
observers; each subcommand's cell keeps only its own observer and
payload.  :func:`plan_cells` turns one subcommand's runs into
orchestrator cells.

Observers follow one protocol.  The kernel calls the first three, and
:func:`run_observed` the last:

* ``after_op(kernel, site)`` after each lifecycle operation (``exec``,
  ``fork``, ``exit``, ``mmap``, ``munmap``, ``mprotect``);
* ``on_event(kernel)`` after each executed access event;
* ``after_run(kernel)`` at the end of each ``Kernel.run``;
* ``finalize(kernel)`` once the workload is done.

A workload calls ``snap(kernel)`` at the points where ``satr check``
compares the sharing and stock runs' address-space state.
"""

from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.android.binder import BinderBenchmark, BinderConfig
from repro.android.zygote import AndroidRuntime
from repro.common.rng import DeterministicRng
from repro.experiments.common import (
    DEFAULT_SEED,
    Scale,
    build_runtime,
    scale_from_params,
    scale_to_params,
)
from repro.orchestrate import Cell, kernel_config_fields
from repro.workloads.profiles import APP_PROFILES, HELLOWORLD
from repro.workloads.session import launch_app, run_steady_state

#: target -> (sharing configuration, stock reference configuration).
#: The sharing side is the configuration the paper proposes for the
#: workload (TLB sharing where the workload exercises it).  Every run
#: boots the original library layout; trace, metrics and check cells
#: record it as their ``mode`` param, which their cache digests cover.
OBSERVED_CONFIGS: Dict[str, Tuple[str, str]] = {
    "fork": ("shared-ptp", "stock"),
    "launch": ("shared-ptp-tlb", "stock"),
    "steady": ("shared-ptp", "stock"),
    "ipc": ("shared-ptp-tlb", "stock"),
}

OBSERVED_TARGETS = sorted(OBSERVED_CONFIGS)

#: Targets whose trace and metrics reports list the stock cell first:
#: the cell order those reports were recorded in.
STOCK_FIRST = frozenset({"launch", "steady", "ipc"})

Snap = Callable[[Any], None]


def _no_snap(kernel) -> None:
    """The default snapshot callback: record nothing."""


# ---------------------------------------------------------------------------
# Workloads (one per target).
# ---------------------------------------------------------------------------

def _workload_fork(runtime, scale: Scale, snap: Snap) -> None:
    kernel = runtime.kernel
    for index in range(scale.fork_rounds):
        child, _ = runtime.fork_app(f"trace-fork-{index}")
        snap(kernel)  # Child alive: parent/child aliasing is comparable.
        kernel.exit_task(child)
    snap(kernel)


def _workload_launch(runtime, scale: Scale, snap: Snap) -> None:
    rng = DeterministicRng(100, "trace-launch")
    for round_index in range(scale.launch_rounds):
        session = launch_app(
            runtime, HELLOWORLD, rng,
            revisit_passes=scale.revisit_passes,
            base_burst=scale.base_burst,
            round_seed=round_index,
        )
        snap(runtime.kernel)  # After the launch footprint, before teardown.
        session.finish()
    snap(runtime.kernel)


def _workload_steady(runtime, scale: Scale, snap: Snap) -> None:
    apps = list(scale.apps) if scale.apps else list(APP_PROFILES)
    for app in apps:
        rng = DeterministicRng(50, f"trace-steady-{app}")
        session = launch_app(
            runtime, APP_PROFILES[app], rng,
            revisit_passes=scale.revisit_passes,
            base_burst=scale.base_burst,
        )
        for _ in range(scale.steady_rounds):
            run_steady_state(session, rng, base_burst=scale.base_burst)
        snap(runtime.kernel)
        session.finish()
    snap(runtime.kernel)


def _workload_ipc(runtime, scale: Scale, snap: Snap) -> None:
    bench = BinderBenchmark(
        runtime, config=BinderConfig(invocations=scale.ipc_invocations)
    )
    bench.run()
    snap(runtime.kernel)


WORKLOADS: Dict[str, Callable[[AndroidRuntime, Scale, Snap], None]] = {
    "fork": _workload_fork,
    "launch": _workload_launch,
    "steady": _workload_steady,
    "ipc": _workload_ipc,
}


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def run_observed(target: str, config: str, scale: Scale,
                 seed: int = DEFAULT_SEED, *,
                 observers: Sequence[Any] = (), tracer=None,
                 policy: str = "baseline",
                 snap: Snap = _no_snap,
                 fresh: bool = False) -> AndroidRuntime:
    """Boot ``config`` with ``tracer`` and ``observers`` attached, drive
    ``target``'s workload, then finalize every observer.

    The hooks are attached before boot, so they see the kernel's whole
    lifetime.  ``fresh`` is :func:`build_runtime`'s.  Returns the
    runtime for payloads that read its state.
    """
    runtime = build_runtime(config, seed=seed, tracer=tracer,
                            observers=observers, policy=policy,
                            fresh=fresh)
    WORKLOADS[target](runtime, scale, snap)
    for observer in observers:
        observer.finalize(runtime.kernel)
    return runtime


def run_cell(params: Dict[str, Any], **hooks) -> AndroidRuntime:
    """:func:`run_observed` for one planned cell's params."""
    return run_observed(
        params["target"], params["config"],
        scale_from_params(params["scale"]), params["seed"],
        policy=params.get("policy", "baseline"),
        **hooks,
    )


# ---------------------------------------------------------------------------
# Planning.
# ---------------------------------------------------------------------------

def target_configs(kind: str, target: str) -> Tuple[str, str]:
    """``target``'s (sharing, stock) configurations for ``satr kind``."""
    try:
        return OBSERVED_CONFIGS[target]
    except KeyError:
        raise KeyError(
            f"unknown {kind} target {target!r}; known: {OBSERVED_TARGETS}"
        ) from None


def report_configs(kind: str, target: str) -> Tuple[str, str]:
    """``target``'s two configurations in trace/metrics report order."""
    sharing, stock = target_configs(kind, target)
    return (stock, sharing) if target in STOCK_FIRST else (sharing, stock)


def plan_cells(kind: str, fn: str,
               runs: Iterable[Tuple[str, str, str, Dict[str, Any]]],
               scale: Scale, seed: int) -> List[Cell]:
    """One ``kind`` cell per ``(target, cell id, config, params)`` run.

    Each cell's params gain its target, config, scale and seed; its
    digest covers the config's fields under the run's policy.
    """
    return [
        Cell(
            experiment=f"{kind}-{target}",
            cell_id=cell_id,
            fn=fn,
            params=dict(params, target=target, config=config,
                        scale=scale_to_params(scale), seed=seed),
            config_fields=kernel_config_fields(
                config, policy=params.get("policy", "baseline")),
        )
        for target, cell_id, config, params in runs
    ]
