"""Metrics-subsystem overhead benchmark: sampler on vs off, per target.

Regenerates ``BENCH_metrics.json`` at the repo root via
:func:`repro.experiments.bench.run_bench`: for every metrics target
the minimum-of-N wall time of the workload with sampling disabled (no
observers, the path every ordinary run takes) and enabled (a real
:class:`Sampler` at the default cadence), plus the final gauge snapshot
the ``satr bench --compare`` gate reads.

The guarded-emission contract says the disabled path costs one
empty-tuple check per hook site, so the disabled run must stay within
5% of the enabled run's wall time (in practice it is faster — the margin
absorbs timer noise).
"""

import json
from pathlib import Path

from repro.experiments.bench import run_bench, write_report
from repro.experiments.common import QUICK

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_metrics.json"


def test_bench_metrics_overhead(benchmark):
    """One-shot regeneration of BENCH_metrics.json."""
    report = benchmark.pedantic(lambda: run_bench(QUICK),
                                rounds=1, iterations=1)
    write_report(report, str(OUTPUT))
    round_tripped = json.loads(OUTPUT.read_text())
    assert round_tripped == report
    for target, row in report["targets"].items():
        benchmark.extra_info[target] = row["overhead_pct"]
        assert row["off_within_5pct_of_on"], (target, row)
        assert row["samples"] > 0, (target, row)
        assert row["final_gauges"], (target, row)
