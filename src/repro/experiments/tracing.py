"""``satr trace``: run a workload with event tracing, export the trace.

Each trace *target* (fork / launch / steady / ipc) runs its observed
workload (:mod:`repro.experiments.observed`) under two kernel
configurations — one cell per configuration, routed through
:mod:`repro.orchestrate` like every other experiment.  A cell's payload
carries the tracer summary, the kernel's counters, the
counter-agreement check, and the retained events, so a cache-replayed
cell reproduces the exact same report and export files as a fresh run.

The counter-agreement check is the subsystem's self-test: every event
type that pairs with a software counter (SOFT_FAULT with
``soft_faults``, COW_UNSHARE with ``cow_faults``, ...) must have an
emit count equal to the counter's value over the kernel's lifetime
(the tracer is attached before boot, so boot activity is in both).
"""

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import DEFAULT, DEFAULT_SEED, Scale, format_table
from repro.experiments.observed import plan_cells, report_configs, run_cell
from repro.orchestrate import Cell, Orchestrator, jsonable
from repro.trace import (
    DEFAULT_RING_SIZE,
    TraceEvent,
    Tracer,
    top_unshare_offenders,
    write_chrome,
)

#: (event type value, Counters attribute) pairs the agreement check
#: verifies.  PAGE_FAULT, TLB_FILL and TLB_FLUSH have no one-to-one
#: counter and are excluded by design.
COUNTER_PAIRS: List[Tuple[str, str]] = [
    ("soft_fault", "soft_faults"),
    ("cow_unshare", "cow_faults"),
    ("domain_fault", "domain_faults"),
    ("ptp_share", "ptp_share_events"),
    ("ptp_unshare", "ptp_unshare_events"),
    ("fork", "forks"),
    ("ctx_switch", "context_switches"),
]


# ---------------------------------------------------------------------------
# The cell.
# ---------------------------------------------------------------------------

def counter_agreement(counts: Dict[str, int],
                      counters: Dict[str, Any]) -> Dict[str, Any]:
    """Compare per-type event counts against counter values."""
    agreement: Dict[str, Any] = {}
    for event_key, counter_key in COUNTER_PAIRS:
        events = int(counts.get(event_key, 0))
        counter = int(counters[counter_key])
        agreement[event_key] = {
            "events": events,
            "counter": counter,
            "ok": events == counter,
        }
    return agreement


def trace_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One configuration's traced workload run (a self-contained cell)."""
    tracer = Tracer(ring_size=params["ring_size"])
    runtime = run_cell(params, tracer=tracer)
    counters = jsonable(runtime.kernel.counters)
    summary = tracer.summary()
    return {
        "target": params["target"],
        "label": params["label"],
        "config": params["config"],
        "summary": summary,
        "counters": counters,
        "agreement": counter_agreement(summary["counts"], counters),
        "events": [event.to_dict() for event in tracer.events()],
    }


def trace_cells(target: str, scale: Scale = DEFAULT,
                seed: int = DEFAULT_SEED,
                ring_size: int = DEFAULT_RING_SIZE) -> List[Cell]:
    """The per-configuration trace cells for one target."""
    return plan_cells("trace", "repro.experiments.tracing:trace_cell", [
        (target, config, config,
         {"label": config, "mode": "ORIGINAL", "ring_size": ring_size})
        for config in report_configs("trace", target)
    ], scale, seed)


# ---------------------------------------------------------------------------
# Merge / report.
# ---------------------------------------------------------------------------

@dataclass
class TraceResult:
    """All configurations' trace payloads for one target."""

    target: str
    payloads: List[Dict[str, Any]]

    @property
    def all_agree(self) -> bool:
        """True when every counter-agreement check passed in every cell."""
        return all(
            check["ok"]
            for payload in self.payloads
            for check in payload["agreement"].values()
        )

    def cell_events(self) -> List[Tuple[str, List[TraceEvent]]]:
        """Reconstructed events per cell, for the exporters."""
        return [
            (payload["label"],
             [TraceEvent.from_dict(d) for d in payload["events"]])
            for payload in self.payloads
        ]

    def render(self) -> str:
        """Plain-text report: counts, agreement, unshare offenders."""
        event_types = sorted({
            key for payload in self.payloads
            for key in payload["summary"]["counts"]
        })
        rows = []
        for payload in self.payloads:
            counts = payload["summary"]["counts"]
            rows.append(
                [payload["label"]]
                + [str(counts.get(key, 0)) for key in event_types]
                + [str(payload["summary"]["dropped"])]
            )
        lines = [format_table(
            ["Cell"] + event_types + ["dropped"], rows,
            title=f"Trace: {self.target} — events per configuration",
        )]
        for payload in self.payloads:
            status = ("OK" if all(c["ok"]
                                  for c in payload["agreement"].values())
                      else "MISMATCH")
            detail = ", ".join(
                f"{key}={check['events']}/{check['counter']}"
                for key, check in sorted(payload["agreement"].items())
                if not check["ok"]
            )
            line = (f"counter agreement [{payload['label']}]: {status}")
            if detail:
                line += f" ({detail})"
            lines.append(line)
        for label, events in self.cell_events():
            offenders = top_unshare_offenders(events, top_n=5)
            if not offenders:
                continue
            rows = [
                [str(o["ptp"]), f"{o['base_va']:#x}", o["region"],
                 str(o["unshares"]),
                 ", ".join(f"{k}:{v}"
                           for k, v in sorted(o["triggers"].items()))]
                for o in offenders
            ]
            lines.append(format_table(
                ["PTP slot", "base VA", "region", "unshares", "triggers"],
                rows,
                title=f"Top unshare offenders [{label}]",
            ))
        return "\n\n".join(lines)


def run_trace(target: str, scale: Scale = DEFAULT,
              orchestrator: Optional[Orchestrator] = None,
              seed: int = DEFAULT_SEED,
              ring_size: int = DEFAULT_RING_SIZE) -> TraceResult:
    """Run one trace target through the orchestrator."""
    orchestrator = orchestrator or Orchestrator()
    cells = trace_cells(target, scale, seed, ring_size)
    return TraceResult(target=target, payloads=orchestrator.run(cells))


# ---------------------------------------------------------------------------
# Export.
# ---------------------------------------------------------------------------

def export_result(result: TraceResult, path: str, fmt: str,
                  scale_name: str, seed: int) -> int:
    """Write the trace file; returns the number of events written."""
    if fmt == "chrome":
        other_data = {
            "target": result.target,
            "scale": scale_name,
            "seed": seed,
            "counters": {p["label"]: p["counters"]
                         for p in result.payloads},
            "summaries": {p["label"]: p["summary"]
                          for p in result.payloads},
        }
        return write_chrome(result.cell_events(), path,
                            other_data=other_data)
    if fmt == "jsonl":
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for payload in result.payloads:
                for record in payload["events"]:
                    line = dict(record)
                    line["cell"] = payload["label"]
                    handle.write(json.dumps(line, sort_keys=True))
                    handle.write("\n")
                    count += 1
        return count
    raise ValueError(f"unknown trace format {fmt!r}")
