"""The repository benchmark: workloads run from outside ``satr``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from anywhere; it builds nothing, byte-compiles ``src/`` once and
runs ``repro`` from the checkout that holds this directory.  Workloads
(see NOTES.md for why each was chosen):

* ``boot-fork``   -- ``satr table4 --scale quick``: boot-bound.
* ``served-mix``  -- one ``satr serve``: a cold ``fork`` + ``ipc`` phase
  that fills an empty cache, then warm requests that replay it.
* ``steady-apps`` -- ``satr steady --scale quick``: workload-bound.  Not
  in BENCHMARK.json (one run is ~70 s); run it by hand.

Every cold run is a fresh process with a fresh, empty cache directory
under ``.bench_run/``, removed afterwards.  Cold CLI runs repeat until
``--seconds`` have passed; then each set-up is followed by a process
that replays the target from the last run's now warm cache, the CLI
counterpart of the served warm phase.  ``served-mix`` is fixed work
(its cold phase alone outlasts any useful ``--seconds``).  Every report is checked against ``golden.json``:
a non-zero exit, an HTTP error or a report whose sha256 differs counts
as a failed operation.

``--trace 0`` prints the end-to-end metrics (host wall time and host
memory, tracing off).  ``--trace 1`` repeats the untraced runs, then
one run with every layer wrapped in timing shims (``layers.py``), and
prints the per-layer metrics, ``unattributed_s`` and
``trace.overhead_ratio``.  The last stdout line is the result object;
the line before it records the host (``nproc``, ``/proc/loadavg``) and
every raw sample.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

import layers
import served

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
SATR = [sys.executable, "-m", "repro.experiments.runner"]

CLI_TARGETS = {"boot-fork": "table4", "steady-apps": "steady"}
WORKLOADS = tuple(CLI_TARGETS) + ("served-mix",)
#: Set-up measurements per run; the median is reported.  A CLI set-up
#: boots once (~3.6 s); a server set-up only spawns (~0.25 s).
SETUP_REPS = 3
SERVER_SETUP_REPS = 9
#: Warm operations per run: requests of a served session, and in-process
#: replays of a CLI target from the cache its last cold run filled, per
#: set-up (~0.4 ms each, so more of them fit).  Fixed work, so peak RSS
#: and the traced counts do not depend on machine speed.  The warm
#: metrics are taken per block of WARM_BLOCK operations (10 samples
#: beyond each block's p99); see warm_metrics.  The traced session needs
#: only exact counts.
WARM_REQUESTS = 5000
WARM_REPLAYS = 5000
WARM_BLOCK = 1000
WARM_REQUESTS_TRACED = 1000
#: Any child still running after this long is killed (and fails).
CHILD_TIMEOUT_S = 150.0
#: ``golden.json`` holds report digests for program seeds 1..8; the
#: benchmark seed picks one of them (seed 7 is the default and the
#: figures' seed; the others are held out).
GOLDEN_SEEDS = 8


def program_seed(seed: int) -> int:
    return 1 + (seed - 1) % GOLDEN_SEEDS


def report_of(stdout: str, target: str) -> str:
    """The report text inside ``satr TARGET``'s stdout (the bytes
    ``satr serve`` returns for the same target and seed)."""
    header = f"=== {target} (scale=quick) ===\n"
    if stdout.startswith(header) and stdout.endswith("\n\n"):
        return stdout[len(header):-2]
    return stdout


def wait_with_usage(proc: subprocess.Popen) -> Tuple[int, object]:
    """Reap ``proc``; returns its exit code and its own rusage."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return handle.read().strip()


class Bench:
    """One benchmark run: seed, golden digests, scratch space, tallies."""

    def __init__(self, seed: int) -> None:
        self.seed = program_seed(seed)
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as f:
            golden = json.load(f)
        self.golden = {target: digests[str(self.seed)]
                       for target, digests in golden.items()}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(CHECKOUT, "src"))
        self.root = os.path.join(CHECKOUT, ".bench_run")
        os.makedirs(self.root, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=self.root)
        self.attempted = 0
        self.failed = 0

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.workdir)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(self.root)
        except OSError:
            pass  # Another run still uses it.

    # -- CLI workloads --------------------------------------------------

    def boot_setup(self, target: str) -> float:
        """Fresh interpreter to the first booted runtime, in seconds."""
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, LAUNCH, "boot", target, str(self.seed)],
            cwd=CHECKOUT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.close()
            code = proc.wait()
        finally:
            watchdog.cancel()
        self.count(code == 0 and line.strip() == b"booted")
        return elapsed

    def cli_run(self, target: str, cache_dir: str,
                trace_out: str = None) -> Tuple[float, float]:
        """One ``satr TARGET`` process; returns (wall s, peak RSS MB)."""
        workdir = self.fresh_dir()
        prefix = ([sys.executable, LAUNCH, "trace", trace_out]
                  if trace_out else SATR)
        argv = prefix + [target, "--scale", "quick", "--seed",
                         str(self.seed), "--jobs", "1",
                         "--cache-dir", cache_dir]
        stdout_path = os.path.join(workdir, "stdout")
        with open(stdout_path, "wb") as out, \
                open(os.path.join(workdir, "stderr"), "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=CHECKOUT, env=self.env,
                                    stdout=out, stderr=err)
            code, usage = wait_with_usage(proc)
            wall = time.perf_counter() - started
        with open(stdout_path, encoding="utf-8") as handle:
            report = report_of(handle.read(), target)
        self.count(code == 0
                   and served.digest(report) == self.golden[target])
        shutil.rmtree(workdir)
        return wall, usage.ru_maxrss / 1024.0

    def warm_replays(self, target: str, cache_dir: str) -> List[float]:
        """WARM_REPLAYS replays of ``target`` from ``cache_dir`` in one
        process (``launch.py warm``); returns the clock marks."""
        proc = subprocess.Popen(
            [sys.executable, LAUNCH, "warm", target, str(self.seed),
             cache_dir, str(WARM_REPLAYS)],
            cwd=CHECKOUT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout, _ = proc.communicate()
        finally:
            watchdog.cancel()
        if proc.returncode != 0:
            raise RuntimeError(f"warm replay of {target} exited with "
                               f"{proc.returncode}")
        result = json.loads(stdout)
        self.attempted += WARM_REPLAYS
        self.failed += (WARM_REPLAYS
                        - result["digests"].get(self.golden[target], 0))
        return result["marks"]

    def cold_runs(self, target: str, seconds: float):
        """Cold runs until ``seconds`` have passed (at least one).

        Returns the walls, the peak RSS of each run, and the last run's
        (now warm) cache directory.
        """
        walls: List[float] = []
        rss: List[float] = []
        cache_dir = None
        started = time.perf_counter()
        while not walls or time.perf_counter() - started < seconds:
            if cache_dir is not None:
                shutil.rmtree(cache_dir)
            cache_dir = self.fresh_dir()
            wall, peak = self.cli_run(target, cache_dir)
            walls.append(wall)
            rss.append(peak)
        return walls, rss, cache_dir

    # -- served-mix -----------------------------------------------------

    def server(self, trace_out: str = None) -> served.Server:
        argv = ([sys.executable, LAUNCH, "trace", trace_out]
                if trace_out else SATR)
        try:
            server = served.Server(argv, self.env, CHECKOUT,
                                   self.fresh_dir())
        except RuntimeError:
            self.count(False)
            raise
        self.count(True)
        return server

    def session(self, warm_requests: int,
                trace_out: str = None) -> Dict[str, object]:
        """One served session on a fresh server, stopped afterwards."""
        server = self.server(trace_out)
        try:
            result = served.session(server, self.seed, self.golden,
                                    warm_requests)
            result["setup_s"] = server.setup_s
            result["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()  # A traced server writes its trace on exit.
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        return result


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def warm_metrics(stretches) -> Tuple[Dict[str, float], Dict[str, list]]:
    """The warm metrics of a warm phase run in one or more stretches,
    each given as (latency of each operation, clock before the stretch
    and after each operation), in blocks of WARM_BLOCK operations.

    ``warm_p50_ms`` is the mean over blocks of each block's median
    latency, ``warm_p99_ms`` the mean of each block's p99 over all but
    the worst quarter of blocks, and ``warm_rps`` the operations per
    second over all blocks.  The host's speed flips between two levels
    up to 2x apart, for a fraction of a second to tens of seconds.  A
    quantile over all operations jumps from one level to the other as
    their shares cross it; a mean over blocks moves smoothly with the
    shares.  Host stalls come in bursts of a few blocks, hence the
    dropped quarter; a change to the code moves every block.
    """
    block_p50: List[float] = []
    block_p99: List[float] = []
    block_s: List[float] = []
    for latencies, marks in stretches:
        for i in range(0, len(latencies), WARM_BLOCK):
            block = latencies[i:i + WARM_BLOCK]
            block_p50.append(statistics.median(block))
            block_p99.append(percentile(block, 99))
            block_s.append(marks[i + WARM_BLOCK] - marks[i])
    kept = sorted(block_p99)[:len(block_p99) - len(block_p99) // 4]
    return {
        "warm_p50_ms": 1000.0 * statistics.mean(block_p50),
        "warm_p99_ms": 1000.0 * statistics.mean(kept),
        "warm_rps": WARM_BLOCK * len(block_s) / sum(block_s),
    }, {"warm_block_p50_s": block_p50, "warm_block_p99_s": block_p99,
        "warm_block_s": block_s}


def cli_workload(bench: Bench, target: str, seconds: float,
                 trace: bool) -> Tuple[Dict[str, float], Dict[str, list]]:
    cold, rss, cache_dir = bench.cold_runs(target, seconds)
    samples: Dict[str, list] = {"cold_wall_s": cold}
    if trace:
        out = os.path.join(bench.fresh_dir(), "trace.json")
        traced_wall, _ = bench.cli_run(target, bench.fresh_dir(), out)
        with open(out, encoding="utf-8") as handle:
            metrics = layers.layer_metrics(json.load(handle))
        metrics["trace.overhead_ratio"] = traced_wall / statistics.median(
            cold)
        samples["traced_wall_s"] = [traced_wall]
        return metrics, samples
    # The host's speed shifts by a third within seconds; alternating
    # set-ups with warm stretches spreads both over ~20 s, not ~5 s each.
    setups, stretches = [], []
    for _ in range(SETUP_REPS):
        setups.append(bench.boot_setup(target))
        marks = bench.warm_replays(target, cache_dir)
        latencies = [end - start for start, end in zip(marks, marks[1:])]
        stretches.append((latencies, marks))
    warm, warm_samples = warm_metrics(stretches)
    samples.update(warm_samples, setup_s=setups, peak_rss_mb=rss)
    wall = statistics.median(cold)
    return {
        "wall_s": wall,
        "cold_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
        **warm,
    }, samples


def served_workload(bench: Bench,
                    trace: bool) -> Tuple[Dict[str, float],
                                          Dict[str, list]]:
    samples: Dict[str, list] = {}
    if trace:
        plain = bench.session(WARM_REQUESTS_TRACED)
        out = os.path.join(bench.fresh_dir(), "trace.json")
        traced = bench.session(WARM_REQUESTS_TRACED, trace_out=out)
        with open(out, encoding="utf-8") as handle:
            metrics = layers.layer_metrics(json.load(handle))
        plain_s = plain["cold_s"] + plain["warm_s"]
        traced_s = traced["cold_s"] + traced["warm_s"]
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        samples["session_s"] = [plain_s]
        samples["traced_session_s"] = [traced_s]
        return metrics, samples

    setups = []
    for _ in range(SERVER_SETUP_REPS - 1):
        server = bench.server()  # Set-up only; the session starts the last.
        setups.append(server.setup_s)
        server.stop()
    result = bench.session(WARM_REQUESTS)
    setups.append(result["setup_s"])
    warm, warm_samples = warm_metrics([(result["warm_latencies"],
                                        result["warm_marks"])])
    samples.update(warm_samples, setup_s=setups, cold_s=[result["cold_s"]],
                   warm_s=[result["warm_s"]])
    return {
        "wall_s": result["cold_s"] + result["warm_s"],
        "cold_s": result["cold_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        **warm,
    }, samples


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_rps": "1/s",
         "_ratio": "ratio", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(CHECKOUT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no repro package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    # Every process of the run shares one CPU (children inherit it): a
    # request then hands off between client and server threads without
    # waking another CPU, whose wake-up latency on a shared host varied
    # the warm p99 tenfold between runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    host = {"nproc": os.cpu_count(), "loadavg_start": loadavg()}
    bench = Bench(args.seed)
    try:
        if args.workload == "served-mix":
            metrics, samples = served_workload(bench, bool(args.trace))
        else:
            metrics, samples = cli_workload(
                bench, CLI_TARGETS[args.workload], args.seconds,
                bool(args.trace))
    finally:
        bench.close()
    host["loadavg_end"] = loadavg()
    print(json.dumps({"host": host, "workload": args.workload,
                      "program_seed": bench.seed, "samples": samples}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
