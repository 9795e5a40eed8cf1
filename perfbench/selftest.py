"""Self-test of the traced run: counts repeat, time is fully accounted.

    python3 perfbench/selftest.py [WORKLOAD ...]   (default: boot-fork)

Runs ``run.py --trace 1`` twice per workload and fails unless

* both runs are correct (every report, traced or not, matches its
  golden digest, so the timing shims do not perturb the simulation);
* every per-layer count and count ratio is identical in both runs
  (only host-time metrics may differ);
* ``unattributed_s`` is non-negative in both.

It prints the first run's per-layer table, then PASS or FAIL per
workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-layer metrics derived from host time; all others must repeat.
TIMED_RATIOS = ("android.boot_share", "trace.overhead_ratio")


def traced_run(workload: str) -> dict:
    stdout = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(stdout.strip().splitlines()[-1])


def check(workload: str) -> list:
    first, second = traced_run(workload), traced_run(workload)
    for name, metric in first["metrics"].items():
        print(f"{workload} {name} {metric['value']} {metric['unit']}")
    problems = []
    for index, result in enumerate((first, second), 1):
        if not result["correct"] or result["failed"]:
            problems.append(f"run {index}: {result['failed']} of "
                            f"{result['attempted']} operations failed")
        unattributed = result["metrics"]["unattributed_s"]["value"]
        if unattributed < 0:
            problems.append(f"run {index}: unattributed_s {unattributed}")
    for name, metric in first["metrics"].items():
        if name.endswith("_s") or name in TIMED_RATIOS:
            continue
        other = second["metrics"][name]["value"]
        if metric["value"] != other:
            problems.append(f"{name}: {metric['value']} != {other}")
    return problems


def main(workloads) -> int:
    failed = False
    for workload in workloads or ["boot-fork"]:
        problems = check(workload)
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        print(f"{'FAIL' if problems else 'PASS'} {workload}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
