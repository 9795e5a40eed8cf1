"""The ``served-mix`` workload: one ``satr serve`` process, one client.

The client is this process.  It drives the server closed-loop from one
thread: it sends the next request only after the previous reply, so one
connection is open at a time.  Two client threads, one per CPU of a
2-CPU host, made the warm metrics unsteady: client and server then need
both CPUs, and any neighbour on the host shows in every warm number.
"""

import hashlib
import http.client
import json
import os
import signal
import subprocess
import time
from typing import Dict, List, Tuple

#: Targets of the cold phase, in order; the warm phase alternates them.
TARGETS = ("fork", "ipc")
#: Client-side limit on one request (a cold ``ipc`` takes ~15 s).
REQUEST_TIMEOUT_S = 120.0
#: How long a server may take to answer ``/healthz`` after spawning.
READY_TIMEOUT_S = 60.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Server:
    """One spawned ``satr serve`` with a fresh, private cache directory."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str,
                 workdir: str) -> None:
        self.cache_dir = os.path.join(workdir, "cache")
        port_file = os.path.join(workdir, "port")
        self.log = open(os.path.join(workdir, "serve.log"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + ["serve", "--host", "127.0.0.1", "--port", "0",
                    "--port-file", port_file, "--cache-dir", self.cache_dir],
            cwd=cwd, env=env, stdout=self.log, stderr=self.log)
        try:
            self.port = self._await_ready(port_file, started)
        except BaseException:
            self.stop()
            raise
        #: Spawn to the first ``/healthz`` 200, in seconds.
        self.setup_s = time.perf_counter() - started

    def _await_ready(self, port_file: str, started: float) -> int:
        while time.perf_counter() - started < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                with open(port_file, encoding="utf-8") as handle:
                    port = int(handle.read().strip())
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return port
                finally:
                    conn.close()
            except (OSError, ValueError, http.client.HTTPException):
                pass  # Not listening yet.
            time.sleep(0.002)
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.log.close()
        return code


def post_run(port: int, seed: int, target: str,
             golden: Dict[str, str]) -> Tuple[bool, float]:
    """POST one ``/run``; returns (report matches golden, seconds).

    One connection per request, as ``satr loadgen`` does.  On a kept-
    alive connection every reply stalls ~40 ms: the server sends headers
    and body in two writes, and Nagle's algorithm holds the body until
    the client's delayed ACK.
    """
    body = json.dumps({"target": target, "scale": "quick", "seed": seed,
                       "jobs": 1})
    started = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/run", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        ok = (response.status == 200
              and digest(json.loads(data)["report"]) == golden[target])
    except (OSError, ValueError, KeyError, http.client.HTTPException):
        ok = False
    finally:
        conn.close()
    return ok, time.perf_counter() - started


def session(server: Server, seed: int, golden: Dict[str, str],
            warm_requests: int) -> Dict[str, object]:
    """The cold phase, then ``warm_requests`` warm requests.

    Cold: each target once, in order: every cell misses the empty cache
    and is simulated and stored.  Warm: the targets alternate, every
    cell a cache hit.  Returns the cold seconds, each warm latency, the
    clock after each warm reply (``warm_marks[0]`` is the phase start)
    and the failure count.
    """
    failed = 0
    started = time.perf_counter()
    for target in TARGETS:
        ok, _ = post_run(server.port, seed, target, golden)
        failed += not ok
    cold_s = time.perf_counter() - started

    latencies: List[float] = []
    marks = [time.perf_counter()]
    for n in range(warm_requests):
        ok, seconds = post_run(server.port, seed, TARGETS[n % len(TARGETS)],
                               golden)
        failed += not ok
        latencies.append(seconds)
        marks.append(time.perf_counter())
    return {
        "cold_s": cold_s,
        "warm_s": marks[-1] - marks[0],
        "warm_latencies": latencies,
        "warm_marks": marks,
        "attempted": len(TARGETS) + warm_requests,
        "failed": failed,
    }
