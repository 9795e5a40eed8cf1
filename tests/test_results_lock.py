"""Results lock: every cell of ``satr all --scale quick`` at seed 7.

``results_lock.json`` holds, per target and cell, the sha256 of the
cell's canonical payload (``repro.orchestrate.canonical_json``).  The
payloads are the reproduced numbers themselves, before any rendering,
so a faster or restructured simulator core must leave every digest
unchanged; the test names each cell that drifted.

Re-record only for a deliberate change to the simulation, and say why
in the change notes::

    PYTHONPATH=src python -m tests.test_results_lock --regen

A normal test run never writes the file.
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.common import SCALES
from repro.experiments.runner import ALL_GROUPS, plan_target
from repro.orchestrate.cells import canonical_json, execute_cell

GOLDEN = Path(__file__).resolve().with_name("results_lock.json")
SCALE = "quick"
SEED = 7


def cell_digests() -> Dict[str, Dict[str, str]]:
    """target -> cell name -> payload sha256, computed serially, uncached."""
    digests: Dict[str, Dict[str, str]] = {}
    for target in ALL_GROUPS:
        plan = plan_target(target, SCALES[SCALE], SEED)
        for cell in plan.cells:
            payload = execute_cell(cell.to_dict())
            text = canonical_json(payload).encode("utf-8")
            digests.setdefault(target, {})[cell.name] = (
                hashlib.sha256(text).hexdigest())
    return digests


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


@pytest.mark.slow
def test_every_quick_cell_matches_the_lock():
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == SCALE and golden["seed"] == SEED
    problems = drifted(golden["cells"], cell_digests())
    assert not problems, "cells drifted from results_lock.json: " + ", ".join(
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


def regen() -> None:
    """Recompute every digest and rewrite the golden file."""
    document = {"scale": SCALE, "seed": SEED, "cells": cell_digests()}
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    count = sum(len(cells) for cells in document["cells"].values())
    print(f"wrote {count} cell digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.test_results_lock --regen")
    regen()
