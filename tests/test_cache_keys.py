"""Cache-key lock: the digest of every cell any target plans.

``cache_keys_lock.json`` holds, for every target in ``runner.TARGETS``
at quick, default and paper scale, under each translation policy the
target accepts, every planned cell's name and digest, in plan order.
A cell's digest is its result-cache key, so this pins the keys the way
``results_lock.json`` pins the payloads: a change to how scales or
kernel configurations are flattened into cells that moved a key would
silently orphan every cached result.  Planning simulates nothing, so
the test is fast.

Re-record only for a deliberate change to the keys (a version bump, a
new configuration field), and say why in the change notes::

    PYTHONPATH=src python -m tests.test_cache_keys --regen

A normal test run never writes the file.
"""

import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.experiments.common import DEFAULT_SEED, SCALES
from repro.experiments.runner import POLICY_TARGETS, TARGETS, plan_target
from repro.policy import policy_names

GOLDEN = Path(__file__).resolve().with_name("cache_keys_lock.json")


def compute() -> Dict[str, List[str]]:
    """``target/scale/policy`` -> ``"<cell name> <digest>"`` per cell."""
    plans = {}
    for target in sorted(TARGETS):
        policies = policy_names() if target in POLICY_TARGETS else (
            "baseline",)
        for scale in SCALES:
            for policy in policies:
                plan = plan_target(target, SCALES[scale], DEFAULT_SEED,
                                   policy)
                plans[f"{target}/{scale}/{policy}"] = [
                    f"{cell.name} {cell.digest()}" for cell in plan.cells]
    return plans


def drifted(expected: Dict[str, List[str]],
            actual: Dict[str, List[str]]) -> List[str]:
    """One line per plan whose cells or keys differ."""
    problems = []
    for plan in sorted(set(expected) | set(actual)):
        if plan not in actual:
            problems.append(f"{plan}: missing from the run")
        elif plan not in expected:
            problems.append(f"{plan}: not in the lock")
        elif expected[plan] != actual[plan]:
            want = set(expected[plan])
            moved = [line.rsplit(" ", 1)[0] for line in actual[plan]
                     if line not in want]
            problems.append(f"{plan}: {', '.join(moved) or 'cell order'}")
    return problems


def test_every_planned_cell_keeps_its_key():
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed"] == DEFAULT_SEED
    problems = drifted(golden["plans"], compute())
    assert not problems, (f"{len(problems)} plan(s) drifted from "
                          f"{GOLDEN.name}:\n" + "\n".join(problems[:20]))


def test_drift_names_each_cell():
    expected = {"fork/quick/baseline": ["launch/Stock Android a",
                                        "table4/copy-pte b"],
                "ipc/quick/baseline": ["ipc/asid-stock c"]}
    actual = {"fork/quick/baseline": ["launch/Stock Android a",
                                      "table4/copy-pte x"],
              "ipc/paper/baseline": ["ipc/asid-stock c"]}
    assert drifted(expected, actual) == [
        "fork/quick/baseline: table4/copy-pte",
        "ipc/paper/baseline: not in the lock",
        "ipc/quick/baseline: missing from the run",
    ]


def regen() -> None:
    """Plan every target again; rewrite the lock file."""
    plans = compute()
    document = {"seed": DEFAULT_SEED, "plans": plans}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    count = sum(len(cells) for cells in plans.values())
    print(f"wrote {count} cell keys of {len(plans)} plans to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python -m tests.test_cache_keys --regen")
    regen()
