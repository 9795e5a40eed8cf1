"""Trace-subsystem overhead benchmark: tracer on vs off, per target.

Regenerates ``BENCH_trace.json`` at the repo root: for every trace
target the minimum-of-N wall time of a fresh boot plus the instrumented
workload with tracing disabled (the default ``NullTracer`` path every
ordinary run takes) and enabled (a full ring-buffer ``Tracer``), the
tracing overhead that difference implies, and the run's key counter
totals.

The guarded-emission contract says the disabled path costs one
attribute check per emission site, so the disabled run must stay
within 5% of the enabled run's wall time (in practice it is faster —
the margin absorbs timer noise); the JSON records the measurement the
acceptance check reads.
"""

import json
from pathlib import Path

from repro.experiments.bench import timed_run
from repro.experiments.common import DEFAULT_SEED, QUICK
from repro.experiments.observed import OBSERVED_CONFIGS, OBSERVED_TARGETS
from repro.experiments.tracing import COUNTER_PAIRS
from repro.trace import Tracer

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_trace.json"

#: Wall-time samples per (target, mode); minimum-of-N rejects noise.
RUNS = 2


def _timed_run(target, tracer_factory):
    """One traced workload run; returns (wall seconds, kernel, tracer).

    Both arms boot fresh (:func:`repro.experiments.bench.timed_run`).
    """
    tracer = tracer_factory()
    wall, runtime = timed_run(target, QUICK, DEFAULT_SEED, tracer=tracer)
    return wall, runtime.kernel, tracer


def _measure_target(target):
    """Min-of-N wall times for both tracer modes plus counter totals."""
    off = min(_timed_run(target, lambda: None)[0] for _ in range(RUNS))
    on_runs = [_timed_run(target, Tracer) for _ in range(RUNS)]
    on = min(sample[0] for sample in on_runs)
    _, kernel, tracer = on_runs[0]
    return {
        "config": OBSERVED_CONFIGS[target][0],
        "wall_off_s": round(off, 4),
        "wall_on_s": round(on, 4),
        "tracing_overhead_pct": round(100.0 * (on / off - 1.0), 2),
        "disabled_within_5pct_of_enabled": off <= on * 1.05,
        "events_emitted": tracer.emitted,
        "events_dropped": tracer.dropped,
        "counters": {
            counter_key: int(getattr(kernel.counters, counter_key))
            for _, counter_key in COUNTER_PAIRS
        },
    }


def test_bench_trace_overhead(benchmark):
    """One-shot regeneration of BENCH_trace.json."""
    def run_all():
        return {target: _measure_target(target)
                for target in OBSERVED_TARGETS}

    targets = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report = {
        "scale": QUICK.name,
        "seed": DEFAULT_SEED,
        "runs_per_mode": RUNS,
        "targets": targets,
    }
    OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for target, row in targets.items():
        benchmark.extra_info[target] = row["tracing_overhead_pct"]
        assert row["disabled_within_5pct_of_enabled"], (target, row)
        assert row["events_dropped"] == 0, (target, row)
