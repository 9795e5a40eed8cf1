"""``satr loadgen``: drive a running ``satr serve`` and measure it.

A thread-per-connection closed-loop load generator: ``concurrency``
workers each issue ``POST /run`` requests (targets assigned
round-robin) until a global request budget or a wall-clock duration
runs out, recording per-request latency and the server's
cached/coalesced verdicts.  The report carries p50/p95/p99 latency,
throughput, and cache behaviour — overall and per target.

An optional warm-up pass (default on) issues one sequential request
per target first, so the measured phase exercises the memoized serving
path rather than timing one cold simulation per target.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence

from repro.common.stats import percentile
from repro.experiments.common import DEFAULT_SEED, format_table
from repro.serve.model import DEFAULT_SCALE

#: Reported latency quantiles, as (report key, fraction).
QUANTILES = (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99))


def _post_run(url: str, body: Dict[str, Any],
              timeout: float) -> Dict[str, Any]:
    """One ``POST /run``; returns the decoded response body."""
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"{url.rstrip('/')}/run", data=data,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_metrics(url: str, timeout: float = 10.0) -> str:
    """The server's raw ``/metrics`` exposition text."""
    with urllib.request.urlopen(f"{url.rstrip('/')}/metrics",
                                timeout=timeout) as response:
        return response.read().decode("utf-8")


class _Recorder:
    """Thread-safe sample sink for the measured phase."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.samples: List[Dict[str, Any]] = []
        self.errors: List[str] = []

    def ok(self, target: str, latency_s: float, cached: bool,
           coalesced: bool) -> None:
        with self._lock:
            self.samples.append({
                "target": target,
                "latency_s": latency_s,
                "cached": cached,
                "coalesced": coalesced,
            })

    def error(self, message: str) -> None:
        with self._lock:
            self.errors.append(message)


def _stats_of(samples: List[Dict[str, Any]],
              span_s: float) -> Dict[str, Any]:
    """The latency/throughput summary of one sample set."""
    latencies = sorted(s["latency_s"] for s in samples)
    row: Dict[str, Any] = {
        "count": len(samples),
        "cache_hit_runs": sum(1 for s in samples if s["cached"]),
        "coalesced_runs": sum(1 for s in samples if s["coalesced"]),
    }
    for key, fraction in QUANTILES:
        row[key] = (round(1000.0 * percentile(latencies, fraction), 3)
                    if latencies else None)
    row["mean_ms"] = (round(1000.0 * sum(latencies) / len(latencies), 3)
                      if latencies else None)
    row["throughput_rps"] = (round(len(samples) / span_s, 2)
                             if span_s > 0 else None)
    return row


def run_loadgen(url: str, targets: Sequence[str],
                scale: str = DEFAULT_SCALE, seed: int = DEFAULT_SEED,
                concurrency: int = 4, requests: Optional[int] = None,
                duration_s: Optional[float] = None,
                warmup: bool = True,
                timeout_s: float = 600.0) -> Dict[str, Any]:
    """Drive the server; returns the benchmark report dict.

    Exactly one of ``requests`` (total request budget) or
    ``duration_s`` (wall-clock budget) bounds the measured phase; with
    neither, a 20-request budget applies.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if not targets:
        raise ValueError("at least one target is required")
    if requests is None and duration_s is None:
        requests = 20

    warm_s = 0.0
    if warmup:
        warm_start = time.perf_counter()
        for target in targets:
            _post_run(url, {"target": target, "scale": scale,
                            "seed": seed}, timeout_s)
        warm_s = time.perf_counter() - warm_start

    recorder = _Recorder()
    issued = threading.Semaphore(requests) if requests is not None else None
    counter_lock = threading.Lock()
    counter = [0]
    deadline = (time.perf_counter() + duration_s
                if duration_s is not None else None)

    def worker() -> None:
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if issued is not None and not issued.acquire(blocking=False):
                return
            with counter_lock:
                target = targets[counter[0] % len(targets)]
                counter[0] += 1
            body = {"target": target, "scale": scale, "seed": seed}
            started = time.perf_counter()
            try:
                response = _post_run(url, body, timeout_s)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                recorder.error(f"{target}: {exc}")
                continue
            recorder.ok(target, time.perf_counter() - started,
                        bool(response.get("cached")),
                        bool(response.get("coalesced")))

    measure_start = time.perf_counter()
    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    span_s = time.perf_counter() - measure_start

    per_target = {
        target: _stats_of([s for s in recorder.samples
                           if s["target"] == target], span_s)
        for target in targets
    }
    return {
        "url": url,
        "targets": list(targets),
        "scale": scale,
        "seed": seed,
        "concurrency": concurrency,
        "warmup": warmup,
        "warmup_s": round(warm_s, 3),
        "span_s": round(span_s, 3),
        "errors": len(recorder.errors),
        "error_samples": recorder.errors[:5],
        "overall": _stats_of(recorder.samples, span_s),
        "per_target": per_target,
    }


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a loadgen report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def render_loadgen_report(report: Dict[str, Any]) -> str:
    """Human-readable loadgen summary table."""
    rows = []
    named = list(report["per_target"].items()) + [
        ("overall", report["overall"])]
    for name, row in named:
        rows.append([
            name,
            str(row["count"]),
            str(row["cache_hit_runs"]),
            str(row["coalesced_runs"]),
            "-" if row["p50_ms"] is None else f"{row['p50_ms']:.1f}",
            "-" if row["p95_ms"] is None else f"{row['p95_ms']:.1f}",
            "-" if row["p99_ms"] is None else f"{row['p99_ms']:.1f}",
            "-" if row["throughput_rps"] is None
            else f"{row['throughput_rps']:.1f}",
        ])
    table = format_table(
        ["Target", "reqs", "cache", "coalesced", "p50 ms", "p95 ms",
         "p99 ms", "req/s"],
        rows,
        title=(f"loadgen {report['url']} (scale={report['scale']}, "
               f"seed={report['seed']}, "
               f"concurrency={report['concurrency']}, "
               f"span {report['span_s']}s, "
               f"errors {report['errors']})"),
    )
    return table
