"""Results lock: every cell of ``satr all --scale quick`` at seed 7.

``results_lock.json`` holds, per target and cell, the sha256 of the
cell's canonical payload (``repro.orchestrate.canonical_json``).  The
payloads are the reproduced numbers themselves, before any rendering,
so a faster or restructured simulator core must leave every digest
unchanged; the test names each cell that drifted.

It also holds headline values as readable numbers: Table 4's rows,
Figure 8's median L1-I stalls and the two reductions it prints, Figure
9's mean PTPs and file-backed faults, and Figure 13's normalised iTLB
stall ratios, merged from the same payloads.  A drifted headline is reported as ``old -> new``, so the
failure says which figure moved and by how much.

Re-record only for a deliberate change to the simulation, and say why
in the change notes::

    PYTHONPATH=src python -m tests.test_results_lock --regen

A normal test run never writes the file.
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

from repro.experiments.common import SCALES
from repro.experiments.fork import TABLE4_KERNELS, merge_table4
from repro.experiments.ipc import IPC_KERNELS, merge_ipc
from repro.experiments.launch import LAUNCH_CONFIGS, merge_launch
from repro.experiments.runner import ALL_GROUPS, plan_target
from repro.orchestrate.cells import canonical_json, execute_cell

GOLDEN = Path(__file__).resolve().with_name("results_lock.json")
SCALE = "quick"
SEED = 7


def compute() -> Tuple[Dict[str, Dict[str, str]], Dict[str, float]]:
    """Cell digests (target -> cell name -> payload sha256) and headline
    values, computed serially and uncached."""
    digests: Dict[str, Dict[str, str]] = {}
    payloads: Dict[str, Any] = {}
    for target in ALL_GROUPS:
        plan = plan_target(target, SCALES[SCALE], SEED)
        for cell in plan.cells:
            payload = payloads[cell.name] = execute_cell(cell.to_dict())
            text = canonical_json(payload).encode("utf-8")
            digests.setdefault(target, {})[cell.name] = (
                hashlib.sha256(text).hexdigest())
    return digests, headlines(payloads)


def _ipc_cell_id(asid: bool, kernel: str) -> str:
    return f"{'asid' if asid else 'no-asid'}-{kernel}"


def headlines(payloads: Dict[str, Any]) -> Dict[str, float]:
    """Table 4's rows and Figures 8, 9 and 13's values, by
    ``figure/row/column``."""
    values: Dict[str, float] = {}
    table4 = merge_table4([payloads[f"table4/{kernel}"]
                           for kernel in TABLE4_KERNELS])
    for row in table4.rows:
        for column in ("cycles", "ptps_allocated", "shared_ptps",
                       "ptes_copied"):
            values[f"table4/{row.kernel}/{column}"] = getattr(row, column)
    launch = merge_launch([payloads[f"launch/{label}"]
                           for label, _, _ in LAUNCH_CONFIGS])
    for label, series in launch.series.items():
        values[f"figure8/{label}/l1i_median"] = series.l1i_box.median
        values[f"figure9/{label}/ptps"] = series.mean_ptps
        values[f"figure9/{label}/file_faults"] = series.mean_file_faults
    # The two reductions Figure 8 prints: shared against stock, per layout.
    for layout, suffix in (("original", ""), ("2mb", "-2MB")):
        shared = launch.get(f"Shared PTP & TLB{suffix}").l1i_box.median
        stock = launch.get(f"Stock Android{suffix}").l1i_box.median
        values[f"figure8/reduction/{layout}"] = 1 - shared / stock
    modes = [(asid, kernel) for asid in (False, True) for kernel in IPC_KERNELS]
    ipc = merge_ipc([payloads[f"ipc/{_ipc_cell_id(*mode)}"]
                     for mode in modes])
    for asid, kernel in modes:
        client, server = ipc.normalized(asid, kernel)
        row = f"figure13/{_ipc_cell_id(asid, kernel)}"
        values[f"{row}/client_itlb"] = client
        values[f"{row}/server_itlb"] = server
    return values


def drifted(expected: Dict[str, Dict[str, str]],
            actual: Dict[str, Dict[str, str]]) -> Dict[str, str]:
    """``target:cell`` -> what differs, for every cell not matching."""
    problems = {}
    for target in sorted(set(expected) | set(actual)):
        want = expected.get(target, {})
        got = actual.get(target, {})
        for name in sorted(set(want) | set(got)):
            key = f"{target}:{name}"
            if name not in got:
                problems[key] = "missing from the run"
            elif name not in want:
                problems[key] = "not in the golden file"
            elif want[name] != got[name]:
                problems[key] = f"payload digest {got[name][:12]}..."
    return problems


def moved(expected: Dict[str, float],
          actual: Dict[str, float]) -> Dict[str, str]:
    """headline -> ``old -> new``, for every value not matching."""
    return {
        name: f"{expected.get(name, 'missing')} -> {actual.get(name, 'missing')}"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    }


@pytest.mark.slow
def test_every_quick_cell_matches_the_lock():
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == SCALE and golden["seed"] == SEED
    digests, values = compute()
    problems = drifted(golden["cells"], digests)
    problems.update(moved(golden["headlines"], values))
    assert not problems, "drifted from results_lock.json: " + ", ".join(
        f"{key} ({why})" for key, why in problems.items())


def test_drift_names_each_cell():
    expected = {"fork": {"table4/stock": "a" * 64, "table4/copy-pte": "b" * 64}}
    actual = {"fork": {"table4/stock": "a" * 64, "table4/copy-pte": "c" * 64},
              "ipc": {"ipc/asid-stock": "d" * 64}}
    assert drifted(expected, actual) == {
        "fork:table4/copy-pte": "payload digest cccccccccccc...",
        "ipc:ipc/asid-stock": "not in the golden file",
    }
    assert drifted(actual, expected)["ipc:ipc/asid-stock"] == (
        "missing from the run")


def test_drift_names_each_value():
    expected = {"table4/stock/cycles": 3084480.0,
                "table4/stock/ptes_copied": 3900,
                "figure13/asid-stock/client_itlb": 0.25}
    actual = {"table4/stock/cycles": 3100000.0,
              "table4/stock/ptes_copied": 3900,
              "figure13/no-asid-stock/client_itlb": 1.0}
    assert moved(expected, actual) == {
        "figure13/asid-stock/client_itlb": "0.25 -> missing",
        "figure13/no-asid-stock/client_itlb": "missing -> 1.0",
        "table4/stock/cycles": "3084480.0 -> 3100000.0",
    }


def regen() -> None:
    """Recompute every digest and headline; rewrite the golden file."""
    digests, values = compute()
    document = {"scale": SCALE, "seed": SEED, "cells": digests,
                "headlines": values}
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    count = sum(len(cells) for cells in digests.values())
    print(f"wrote {count} cell digests and {len(values)} headline values "
          f"to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.test_results_lock --regen")
    regen()
