"""``satr check``: differential oracle + invariant sweeps per workload.

Each check *target* (fork / launch / steady / ipc) runs its observed
workload (:mod:`repro.experiments.observed`) twice — once under the
sharing configuration the paper proposes for that workload, once on
the stock-fork kernel — with the runtime
:class:`~repro.check.InvariantChecker` attached to both.  Snapshots
of the observable address-space state
(:func:`~repro.check.semantic_state`) are taken at the same workload
points in both cells; the merge step compares them pairwise
(:func:`~repro.check.diff_states`).  The verdict fails on any invariant
violation in either cell or any snapshot divergence between them —
which is precisely the paper's correctness claim: sharing translations
must be observationally invisible.

``--inject NAME`` applies one seeded protocol mutation
(:mod:`repro.check.inject`) to the *sharing* cell only; the stock cell
stays clean so the oracle keeps an honest reference.  An injected run
must fail — that is how the checker proves it has teeth.

Cells are routed through :mod:`repro.orchestrate` like every other
experiment: serial, ``--jobs N`` and cache-replayed runs produce
byte-identical payloads, and the injected-mutation name is part of the
cell parameters so mutated results can never satisfy a clean cache key.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.check import InvariantChecker, apply_mutation, diff_states, semantic_state
from repro.common.errors import SimulationError
from repro.experiments.common import (
    DEFAULT,
    DEFAULT_SEED,
    Scale,
    format_table,
    params_with_policy,
)
from repro.experiments.observed import plan_cells, run_cell, target_configs
from repro.orchestrate import Cell, Orchestrator

#: Enters every check cell's params.  Bumped whenever the checked
#: workloads change, so a cached payload of an older workload can never
#: answer for the current one (2: the shared observed workloads).
CHECK_REVISION = 2


def check_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """One configuration's checked workload run (a self-contained cell).

    Any :class:`SimulationError` — an invariant violation, a refcount
    crash, anything the kernel's own consistency checks throw — is
    captured as a violation rather than propagated, so an injected bug
    produces a failing payload instead of a dead worker.
    """
    checker = InvariantChecker(every_events=params["every"])
    states: List[Dict[str, Any]] = []
    violations: List[str] = []
    with apply_mutation(params["inject"]):
        try:
            run_cell(params, observers=(checker,),
                     snap=lambda kernel: states.append(semantic_state(kernel)))
        except SimulationError as exc:
            violations.append(f"{type(exc).__name__}: {exc}")
    return {
        "target": params["target"],
        "label": params["label"],
        "config": params["config"],
        "injected": params["inject"],
        "checks": checker.checks_run,
        "states": states,
        "violations": violations,
    }


def check_cells(target: str, scale: Scale = DEFAULT,
                seed: int = DEFAULT_SEED,
                inject: Optional[str] = None,
                every: int = 0,
                policy: str = "baseline") -> List[Cell]:
    """The (sharing, stock) cell pair for one target.

    ``inject`` mutates only the sharing cell; the stock cell is the
    oracle's clean reference and always runs unmodified.  ``policy``
    likewise applies to the sharing cell only: a translation policy
    must be observationally invisible, so the differential oracle keeps
    comparing against the unmodified stock kernel.
    """
    sharing, stock = target_configs("check", target)
    axes = [(sharing, inject, policy), (stock, None, "baseline")]
    return plan_cells("check", "repro.experiments.checking:check_cell", [
        (target,
         (config if mutation is None else f"{config}+{mutation}")
         + ("" if cell_policy == "baseline" else f"@{cell_policy}"),
         config,
         params_with_policy({
             "label": config,
             "mode": "ORIGINAL",
             "inject": mutation,
             "every": every,
             "revision": CHECK_REVISION,
         }, cell_policy))
        for config, mutation, cell_policy in axes
    ], scale, seed)


# ---------------------------------------------------------------------------
# Merge / report.
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """Both cells' payloads for one target, plus the verdict logic."""

    target: str
    payloads: List[Dict[str, Any]]

    @property
    def sharing(self) -> Dict[str, Any]:
        """The sharing-configuration payload (possibly mutated)."""
        return self.payloads[0]

    @property
    def stock(self) -> Dict[str, Any]:
        """The stock reference payload (never mutated)."""
        return self.payloads[1]

    @property
    def violations(self) -> List[Tuple[str, str]]:
        """Every invariant violation as ``(cell label, message)``."""
        return [
            (payload["label"], message)
            for payload in self.payloads
            for message in payload["violations"]
        ]

    def oracle_diffs(self) -> List[str]:
        """Snapshot-by-snapshot semantic divergences between the cells."""
        a, b = self.sharing, self.stock
        diffs: List[str] = []
        if len(a["states"]) != len(b["states"]):
            diffs.append(
                f"snapshot counts differ: {len(a['states'])} in "
                f"{a['label']}, {len(b['states'])} in {b['label']}"
            )
        for index, (state_a, state_b) in enumerate(
                zip(a["states"], b["states"])):
            for line in diff_states(state_a, state_b,
                                    a["label"], b["label"]):
                diffs.append(f"snapshot {index}: {line}")
        return diffs

    @property
    def ok(self) -> bool:
        """True when nothing fired: no violations, no divergence, and
        both cells produced at least one snapshot."""
        return (not self.violations
                and not self.oracle_diffs()
                and all(payload["states"] for payload in self.payloads))

    def render(self) -> str:
        """Plain-text report: per-cell table, then the two verdicts."""
        rows = [
            [
                payload["label"],
                payload["config"],
                payload["injected"] or "-",
                str(payload["checks"]),
                str(len(payload["states"])),
                str(len(payload["violations"])),
            ]
            for payload in self.payloads
        ]
        lines = [format_table(
            ["Cell", "config", "injected", "sweeps", "snapshots",
             "violations"],
            rows,
            title=f"Check: {self.target} — invariant sweeps + oracle",
        )]
        for label, message in self.violations:
            lines.append(f"invariant violation [{label}]: {message}")
        diffs = self.oracle_diffs()
        if diffs:
            lines.append(f"differential oracle: DIVERGED "
                         f"({len(diffs)} differences)")
            lines.extend(f"  {line}" for line in diffs[:25])
        else:
            lines.append(
                "differential oracle: states match at every snapshot"
            )
        lines.append(
            f"check {self.target}: {'PASS' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def run_check(target: str, scale: Scale = DEFAULT,
              orchestrator: Optional[Orchestrator] = None,
              seed: int = DEFAULT_SEED,
              inject: Optional[str] = None,
              every: int = 0,
              policy: str = "baseline") -> CheckResult:
    """Run one check target through the orchestrator."""
    orchestrator = orchestrator or Orchestrator()
    cells = check_cells(target, scale, seed, inject=inject, every=every,
                        policy=policy)
    return CheckResult(target=target, payloads=orchestrator.run(cells))
