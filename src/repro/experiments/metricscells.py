"""``satr metrics``: sampled sharing/TLB time series per workload.

Each metrics *target* (fork / launch / steady / ipc) runs its observed
workload (:mod:`repro.experiments.observed`) under two kernel
configurations — one cell per configuration, routed through
:mod:`repro.orchestrate` like every other experiment, so serial,
``--jobs N`` and cache-replayed runs produce byte-identical payloads.
The sampling interval (``--every``) is a cell parameter and therefore
part of the cache key: a series sampled at a different cadence can
never satisfy a stale cache entry.

A cell's payload carries the full sample series (every lifecycle
boundary plus every ``every`` access events); the merge step derives
the three views: the terminal summary (final/peak gauges, top unshare
causes, sparklines), the Prometheus exposition of the final snapshot,
and the JSONL time series.
"""

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.experiments.common import DEFAULT, DEFAULT_SEED, Scale, format_table
from repro.experiments.observed import plan_cells, report_configs, run_cell
from repro.metrics import (
    DEFAULT_SAMPLE_EVERY,
    Sampler,
    default_registry,
    format_number,
    jsonl_lines,
    series_of,
    sparkline,
    to_prometheus,
)
from repro.orchestrate import Cell, Orchestrator

#: The headline series the summary view sketches, as
#: (metric, label value or None, display name, display scale divisor).
_HEADLINES = [
    ("satr_ptp_slots", "shared", "shared PTP slots", 1.0),
    ("satr_ptp_slots", "private", "private PTP slots", 1.0),
    ("satr_ptp_sharing_ratio", None, "sharing ratio", 1.0),
    ("satr_pagetable_bytes_total", None, "page-table KB (total)", 1024.0),
    ("satr_tlb_miss_rate", "main", "main-TLB miss rate", 1.0),
    ("satr_tlb_occupancy", "main", "main-TLB occupancy", 1.0),
    ("satr_tlb_global_entries", None, "global TLB entries", 1.0),
    ("satr_page_cache_pages", None, "page-cache pages", 1.0),
    ("satr_live_tasks", None, "live tasks", 1.0),
]


# ---------------------------------------------------------------------------
# The cell.
# ---------------------------------------------------------------------------

def metrics_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One configuration's sampled workload run (a self-contained cell)."""
    sampler = Sampler(every_events=params["every"])
    run_cell(params, observers=(sampler,))
    return {
        "target": params["target"],
        "label": params["label"],
        "config": params["config"],
        "every": params["every"],
        "events_total": sampler.events_seen,
        "samples": sampler.samples,
    }


def metrics_cells(target: str, scale: Scale = DEFAULT,
                  seed: int = DEFAULT_SEED,
                  every: int = DEFAULT_SAMPLE_EVERY) -> List[Cell]:
    """The per-configuration metrics cells for one target."""
    fn = "repro.experiments.metricscells:metrics_cell"
    return plan_cells("metrics", fn, [
        (target, f"{config}@{every}", config,
         {"label": config, "mode": "ORIGINAL", "every": every})
        for config in report_configs("metrics", target)
    ], scale, seed)


# ---------------------------------------------------------------------------
# Merge / report.
# ---------------------------------------------------------------------------

@dataclass
class MetricsResult:
    """All configurations' metric series for one target."""

    target: str
    payloads: List[Dict[str, Any]]

    @property
    def ok(self) -> bool:
        """True when every cell produced a non-empty series."""
        return all(payload["samples"] for payload in self.payloads)

    # -- the three views ------------------------------------------------

    def render(self) -> str:
        """The terminal summary: final/peak gauges + sparklines."""
        lines: List[str] = []
        for payload in self.payloads:
            samples = payload["samples"]
            rows = []
            for metric, label_value, display, divisor in _HEADLINES:
                series = [v / divisor
                          for v in series_of(samples, metric, label_value)]
                rows.append([
                    display,
                    format_number(round(series[-1], 4)) if series else "-",
                    format_number(round(max(series), 4)) if series else "-",
                    sparkline(series),
                ])
            lines.append(format_table(
                ["Metric", "final", "peak", "series"],
                rows,
                title=(f"Metrics: {self.target} [{payload['label']}] — "
                       f"{len(samples)} samples over "
                       f"{payload['events_total']} events"),
            ))
            causes = samples[-1]["values"]["satr_ptp_unshare_total"]
            ranked = sorted(causes.items(), key=lambda kv: (-kv[1], kv[0]))
            if ranked:
                top = ", ".join(f"{cause}:{count}"
                                for cause, count in ranked[:5])
                lines.append(f"top unshare causes [{payload['label']}]: "
                             f"{top}")
            else:
                lines.append(
                    f"top unshare causes [{payload['label']}]: none"
                )
        return "\n\n".join(lines)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every cell's final snapshot."""
        return to_prometheus(default_registry(), self.target,
                             self.payloads)

    def jsonl_lines(self) -> Iterator[str]:
        """The JSONL time series, one sorted-key object per sample."""
        return jsonl_lines(self.target, self.payloads)


def run_metrics(target: str, scale: Scale = DEFAULT,
                orchestrator: Optional[Orchestrator] = None,
                seed: int = DEFAULT_SEED,
                every: int = DEFAULT_SAMPLE_EVERY) -> MetricsResult:
    """Run one metrics target through the orchestrator."""
    orchestrator = orchestrator or Orchestrator()
    cells = metrics_cells(target, scale, seed, every)
    return MetricsResult(target=target, payloads=orchestrator.run(cells))


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------

def export_result(result: MetricsResult, path: str, fmt: str) -> int:
    """Write the exposition file; returns lines written."""
    if fmt == "prom":
        text = result.to_prometheus()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return text.count("\n")
    if fmt == "jsonl":
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for line in result.jsonl_lines():
                handle.write(line)
                handle.write("\n")
                count += 1
        return count
    raise ValueError(f"unknown metrics format {fmt!r}")
