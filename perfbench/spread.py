"""Run the benchmark on several seeds and summarise every metric.

    python3 perfbench/spread.py [--runs N] [--first-seed S] [--out FILE]
                                WORKLOAD [WORKLOAD ...]

Runs ``run.py`` untraced N times per workload (seeds S, S+1, ...) with
the ``run_seconds`` of BENCHMARK.json and prints, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread:
the inter-quartile distance as a share of the median, next to the
metric's bound.  ``--out`` also writes every run's result as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            stdout = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=CHECKOUT, check=True, capture_output=True,
                text=True).stdout
            lines = stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["context"] = json.loads(lines[-2])
            result["context"]["run_s"] = time.perf_counter() - started
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['context']['run_s']:.0f}s "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"load={result['context']['host']['loadavg_start']}",
                  file=sys.stderr, flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds.get(name)}
            bound = bounds.get(name)
            print(f"{workload:12s} {name:28s} median {median:12.5g} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:6.3f}"
                  + (f" bound {bound}" if bound is not None else ""))
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
