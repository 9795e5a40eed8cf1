"""``satr bench``: the metrics-layer perf baseline and its comparator.

Measures, for every observed target, the minimum-of-N wall time of a
fresh boot plus the workload with metrics sampling *off* (no observers,
the hook path every ordinary run takes) and *on* (a real
:class:`Sampler`), plus the run's final gauge snapshot.  The report is
written to ``BENCH_metrics.json`` at the repo root and committed,
seeding a trajectory of bench baselines.

``compare_reports`` is the regression gate: given a current report and
a committed baseline it flags (a) wall-time regressions beyond a
tolerance (default 15%) and (b) *any* drift in gauge semantics — the
simulation is deterministic, so the final flattened gauges must match
the baseline exactly, machine speed notwithstanding.

Bench runs never go through the orchestrator: replaying a cached cell
would report the cache's wall time, not the kernel's.
"""

import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.common import DEFAULT_SEED, QUICK, Scale
from repro.experiments.observed import (
    OBSERVED_CONFIGS,
    OBSERVED_TARGETS,
    run_observed,
)
from repro.metrics import (
    DEFAULT_SAMPLE_EVERY,
    Sampler,
    default_registry,
    flatten_values,
)

#: Wall-time samples per (target, mode); minimum-of-N rejects noise.
DEFAULT_RUNS = 2

#: Wall-time regression tolerance for ``--compare`` (fraction).
DEFAULT_TOLERANCE = 0.15

#: The guarded-emission budget: metrics-off must stay within 5% of
#: metrics-on (in practice it is faster; the margin absorbs noise).
OVERHEAD_BUDGET = 0.05


def timed_run(target: str, scale: Scale, seed: int, *,
              observers: Sequence[Any] = (), tracer=None):
    """One freshly booted run of ``target``: (wall seconds, runtime).

    Both arms of an overhead comparison boot fresh, so they do the same
    work: an observed build always boots, and an unobserved one would
    otherwise restore the boot image, timing a restore against a boot.
    """
    start = time.perf_counter()
    runtime = run_observed(target, OBSERVED_CONFIGS[target][0], scale,
                           seed, observers=observers, tracer=tracer,
                           fresh=True)
    return time.perf_counter() - start, runtime


def _timed_run(target: str, scale: Scale, seed: int,
               sampler_factory: Callable[[], Optional[Sampler]]):
    """One sampled workload run; returns (wall seconds, sampler)."""
    sampler = sampler_factory()
    observers = () if sampler is None else (sampler,)
    return timed_run(target, scale, seed, observers=observers)[0], sampler


def measure_target(target: str, scale: Scale = QUICK,
                   seed: int = DEFAULT_SEED,
                   every: int = DEFAULT_SAMPLE_EVERY,
                   runs: int = DEFAULT_RUNS) -> Dict[str, Any]:
    """Min-of-N wall times for both sampler modes plus final gauges."""
    off = min(
        _timed_run(target, scale, seed, lambda: None)[0]
        for _ in range(runs)
    )
    on_runs = [
        _timed_run(target, scale, seed,
                   lambda: Sampler(every_events=every))
        for _ in range(runs)
    ]
    on = min(sample[0] for sample in on_runs)
    sampler = on_runs[0][1]
    return {
        "config": OBSERVED_CONFIGS[target][0],
        "wall_off_s": round(off, 4),
        "wall_on_s": round(on, 4),
        "overhead_pct": round(100.0 * (on / off - 1.0), 2),
        "off_within_5pct_of_on": off <= on * (1.0 + OVERHEAD_BUDGET),
        "samples": len(sampler.samples),
        "final_gauges": flatten_values(default_registry(),
                                       sampler.final_values()),
    }


def run_bench(scale: Scale = QUICK, seed: int = DEFAULT_SEED,
              every: int = DEFAULT_SAMPLE_EVERY,
              runs: int = DEFAULT_RUNS) -> Dict[str, Any]:
    """The full bench report across every observed target."""
    return {
        "scale": scale.name,
        "seed": seed,
        "every": every,
        "runs_per_mode": runs,
        "targets": {
            target: measure_target(target, scale, seed, every, runs)
            for target in OBSERVED_TARGETS
        },
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a bench report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: str) -> Dict[str, Any]:
    """Read a bench report back."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# The regression gate.
# ---------------------------------------------------------------------------

def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Problems in ``current`` relative to ``baseline`` (empty = pass).

    Wall times may only regress by ``tolerance``; gauge values and
    sample counts must match exactly (the simulation is deterministic,
    so any difference is a semantics change, not noise).
    """
    problems: List[str] = []
    for key in ("scale", "seed", "every"):
        if current.get(key) != baseline.get(key):
            problems.append(
                f"{key} mismatch: current={current.get(key)!r} "
                f"baseline={baseline.get(key)!r} (not comparable)"
            )
    if problems:
        return problems
    for target, base_row in sorted(baseline["targets"].items()):
        row = current["targets"].get(target)
        if row is None:
            problems.append(f"{target}: missing from current report")
            continue
        for key in ("wall_off_s", "wall_on_s"):
            limit = base_row[key] * (1.0 + tolerance)
            if row[key] > limit:
                problems.append(
                    f"{target}: {key} regression {base_row[key]}s -> "
                    f"{row[key]}s (> {100.0 * tolerance:.0f}% over "
                    f"baseline)"
                )
        if row["samples"] != base_row["samples"]:
            problems.append(
                f"{target}: sample count drift "
                f"{base_row['samples']} -> {row['samples']}"
            )
        base_gauges = base_row["final_gauges"]
        gauges = row["final_gauges"]
        for name in sorted(set(base_gauges) | set(gauges)):
            if name not in gauges:
                problems.append(f"{target}: gauge {name} disappeared")
            elif name not in base_gauges:
                problems.append(f"{target}: new gauge {name} "
                                f"(baseline has no value)")
            elif gauges[name] != base_gauges[name]:
                problems.append(
                    f"{target}: gauge drift {name}: "
                    f"{base_gauges[name]} -> {gauges[name]}"
                )
    return problems


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable bench table."""
    from repro.experiments.common import format_table

    rows = []
    for target, row in sorted(report["targets"].items()):
        rows.append([
            target,
            row["config"],
            f"{row['wall_off_s']:.3f}",
            f"{row['wall_on_s']:.3f}",
            f"{row['overhead_pct']:+.1f}%",
            str(row["samples"]),
            "yes" if row["off_within_5pct_of_on"] else "NO",
        ])
    return format_table(
        ["Target", "config", "off (s)", "on (s)", "overhead",
         "samples", "off<=on+5%"],
        rows,
        title=(f"Metrics overhead bench (scale={report['scale']}, "
               f"seed={report['seed']}, every={report['every']}, "
               f"min of {report['runs_per_mode']})"),
    )
