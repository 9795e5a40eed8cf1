"""``satr compare``: the translation-policy x workload ablation matrix.

Every cell runs one (policy, target) pair: the target's observed
workload (:mod:`repro.experiments.observed`, the same drivers
``satr trace``/``satr metrics`` use) booted under the target's sharing
configuration with one :mod:`repro.policy` translation policy
installed.  Cells route through :mod:`repro.orchestrate` like every
other experiment, so serial, ``--jobs N`` and cache-replayed runs
produce byte-identical payloads — and because the policy name is a
``KernelConfig`` field it keys the cache digest, so two policies can
never satisfy each other's entries.

The merge step ranks the policies per target by total page-walk cycles
(the quantity every successor design in PAPERS.md optimises) and
reports the paper's sharing-effectiveness gauges next to each policy's
own counters, all read from the final :mod:`repro.metrics` snapshot.
"""

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.common import DEFAULT, DEFAULT_SEED, Scale, format_table
from repro.experiments.observed import (
    OBSERVED_CONFIGS,
    plan_cells,
    run_cell,
    target_configs,
)
from repro.metrics import Sampler
from repro.orchestrate import Cell, Orchestrator
from repro.policy import policy_class, policy_names

#: Default matrix axes: two workloads x every registered policy.
DEFAULT_COMPARE_TARGETS = ("fork", "launch")

#: The ranked-table gauge columns, as (payload key, header).
GAUGE_COLUMNS = (
    ("tlb_miss_rate", "main-TLB miss"),
    ("walk_cycles", "walk cycles"),
    ("pagetable_bytes", "PT bytes"),
    ("sharing_ratio", "sharing"),
)


# ---------------------------------------------------------------------------
# The cell.
# ---------------------------------------------------------------------------

def compare_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (policy, target) run: final gauges + the policy's counters."""
    sampler = Sampler(every_events=0)
    kernel = run_cell(params, observers=(sampler,)).kernel
    final = sampler.final_values()
    walk_cycles = sum(
        core.stats.itlb_stall + core.stats.dtlb_stall
        for core in kernel.platform.cores
    )
    policy_gauges = {
        str(kind): value for kind, value in kernel.policy.gauges().items()
    }
    return {
        "target": params["target"],
        "policy": params["policy"],
        "config": params["config"],
        "gauges": {
            "tlb_miss_rate": final["satr_tlb_miss_rate"]["main"],
            "walk_cycles": walk_cycles,
            # Replicas are real frames the design pays for, so the
            # replicated-pt policy's copies count toward its footprint.
            "pagetable_bytes": (
                final["satr_pagetable_bytes_total"]
                + policy_gauges.get("replica-bytes", 0)
            ),
            "sharing_ratio": final["satr_ptp_sharing_ratio"],
        },
        "policy_events": {
            str(kind): count
            for kind, count in kernel.policy.event_counts().items()
        },
        "policy_gauges": policy_gauges,
        "events_total": sampler.events_seen,
    }


def compare_cells(targets: Sequence[str], policies: Sequence[str],
                  scale: Scale = DEFAULT,
                  seed: int = DEFAULT_SEED) -> List[Cell]:
    """The policy x target matrix as cells (target-major order).

    Unlike the paper-artefact experiments the ``policy`` param is
    always present (baseline included): ``compare`` is a new experiment
    with no pre-policy digests to preserve.
    """
    # Policies are ablations over shared PTPs and TLB entries, so they
    # run under each target's sharing configuration.
    sharing = {target: target_configs("compare", target)[0]
               for target in targets}
    for policy in policies:
        policy_class(policy)  # Fail before any cell is planned.
    return plan_cells("compare", "repro.experiments.compare:compare_cell", [
        (target, policy, sharing[target], {"policy": policy})
        for target in targets
        for policy in policies
    ], scale, seed)


# ---------------------------------------------------------------------------
# Merge / report.
# ---------------------------------------------------------------------------

@dataclass
class CompareResult:
    """The full matrix: every policy's gauges under every target."""

    targets: List[str]
    policies: List[str]
    payloads: List[Dict[str, Any]]

    @property
    def ok(self) -> bool:
        """True when every cell ran its workload and produced gauges."""
        return (
            len(self.payloads) == len(self.targets) * len(self.policies)
            and all(p["events_total"] > 0 and p["gauges"]
                    for p in self.payloads)
        )

    def rows_for(self, target: str) -> List[Dict[str, Any]]:
        """One target's payloads, ranked by walk cycles (best first)."""
        rows = [p for p in self.payloads if p["target"] == target]
        return sorted(rows, key=lambda p: (p["gauges"]["walk_cycles"],
                                           p["policy"]))

    def disagreements(self, target: str) -> List[str]:
        """Gauge names on which the policies differ for one target."""
        rows = self.rows_for(target)
        return sorted(
            key for key, _ in GAUGE_COLUMNS
            if len({repr(row["gauges"][key]) for row in rows}) > 1
        )

    def render(self) -> str:
        """Per-target ranked tables with each policy's own counters."""
        blocks: List[str] = []
        for target in self.targets:
            table_rows = []
            for rank, row in enumerate(self.rows_for(target), start=1):
                gauges = row["gauges"]
                events = sorted(row["policy_events"].items(),
                                key=lambda kv: (-kv[1], kv[0]))
                table_rows.append([
                    str(rank),
                    row["policy"],
                    f"{gauges['tlb_miss_rate']:.4f}",
                    f"{gauges['walk_cycles']:.0f}",
                    str(gauges["pagetable_bytes"]),
                    f"{gauges['sharing_ratio']:.3f}",
                    ", ".join(f"{kind}:{count}"
                              for kind, count in events[:3]),
                ])
            config = OBSERVED_CONFIGS[target][0]
            blocks.append(format_table(
                ["#", "Policy"] + [h for _, h in GAUGE_COLUMNS]
                + ["Policy events (top)"],
                table_rows,
                title=(f"Compare: {target} [{config}] — policies ranked "
                       f"by walk cycles (lower is better)"),
            ))
        return "\n\n".join(blocks)

    def to_json(self) -> str:
        """Canonical JSON (sorted keys) — byte-stable across job counts."""
        return json.dumps(
            {
                "targets": list(self.targets),
                "policies": list(self.policies),
                "cells": self.payloads,
            },
            sort_keys=True, indent=2,
        ) + "\n"


def run_compare(targets: Sequence[str] = DEFAULT_COMPARE_TARGETS,
                policies: Optional[Sequence[str]] = None,
                scale: Scale = DEFAULT,
                orchestrator: Optional[Orchestrator] = None,
                seed: int = DEFAULT_SEED) -> CompareResult:
    """Run the policy x target matrix through the orchestrator."""
    policies = list(policies) if policies else list(policy_names())
    orchestrator = orchestrator or Orchestrator()
    cells = compare_cells(targets, policies, scale, seed)
    return CompareResult(targets=list(targets), policies=list(policies),
                         payloads=orchestrator.run(cells))
