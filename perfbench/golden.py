"""Regenerate ``golden.json``: report digests the benchmark checks.

    python3 perfbench/golden.py

Runs every target the workloads use (``table4`` and ``steady`` on the
CLI, ``fork`` and ``ipc`` behind ``satr serve``) at quick scale for
program seeds 1..8, uncached and serial, and stores the sha256 of each
report.  Regenerate only for a deliberate change of simulated results:
a change meant only to speed the simulator up must leave every digest
as it is.  Takes about ten minutes on one core.
"""

import json
import os
import subprocess
import sys

import run

TARGETS = ("table4", "steady", "fork", "ipc")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(run.CHECKOUT, "src"))
    golden = {}
    for target in TARGETS:
        golden[target] = {}
        for seed in range(1, run.GOLDEN_SEEDS + 1):
            stdout = subprocess.run(
                run.SATR + [target, "--scale", "quick", "--seed", str(seed),
                            "--jobs", "1", "--no-cache"],
                cwd=run.CHECKOUT, env=env, check=True, capture_output=True,
                text=True).stdout
            golden[target][str(seed)] = run.served.digest(
                run.report_of(stdout, target))
            print(f"{target} seed {seed}: {golden[target][str(seed)]}",
                  file=sys.stderr, flush=True)
    with open(os.path.join(run.HERE, "golden.json"), "w",
              encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
