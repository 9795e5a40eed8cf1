"""Child-process entry points for the benchmark (``run.py`` spawns these).

    python3 perfbench/launch.py boot TARGET SEED
        Boot the first kernel configuration of TARGET's quick-scale
        plan, print ``booted`` and exit: the set-up cost a fresh
        ``satr TARGET`` process pays before its first cell can run.

    python3 perfbench/launch.py warm TARGET SEED CACHE-DIR COUNT
        Replay TARGET's quick-scale report COUNT times, back to back, from
        the warm result cache at CACHE-DIR, each time through a fresh
        orchestrator as ``satr TARGET --cache-dir CACHE-DIR`` builds one.
        Prints one JSON line: the clock before the first replay and after
        each one, and how many reports had each sha256.

    python3 perfbench/launch.py trace OUT.json SATR-ARGS...
        Run ``satr SATR-ARGS...`` in this process with every layer
        wrapped in timing shims (see ``layers.py``) and write the spans
        to OUT.json when it returns.  ``satr serve`` returns after
        SIGTERM drains it, so a traced server dumps on shutdown.

Every mode imports ``repro`` from the checkout's ``src/`` directory.
"""

import hashlib
import json
import os
import sys
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(CHECKOUT, "src"))


def boot(target: str, seed: int) -> int:
    from repro.android.layout import LayoutMode
    from repro.experiments.common import SCALES, build_runtime
    from repro.experiments.runner import plan_target

    params = plan_target(target, SCALES["quick"], seed).cells[0].params
    build_runtime(params["config"],
                  mode=LayoutMode[params.get("mode", "ORIGINAL")],
                  seed=seed)
    print("booted", flush=True)
    return 0


def warm(target: str, seed: int, cache_dir: str, count: int) -> int:
    from repro.experiments.common import SCALES
    from repro.experiments.runner import RunContext, run_target
    from repro.orchestrate import Orchestrator, ResultCache

    scale = SCALES["quick"]
    digests = {}
    marks = [time.perf_counter()]
    for _ in range(count):
        orchestrator = Orchestrator(cache=ResultCache(cache_dir))
        report = run_target(target, scale,
                            RunContext(orchestrator=orchestrator, seed=seed))
        marks.append(time.perf_counter())
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
        digests[digest] = digests.get(digest, 0) + 1
    print(json.dumps({"marks": marks, "digests": digests}), flush=True)
    return 0


def trace(out: str, argv) -> int:
    import layers

    recorder = layers.Recorder()
    layers.install(recorder)
    from repro.experiments.runner import main

    started = time.perf_counter()
    code = main(argv)
    recorder.dump(out, time.perf_counter() - started)
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "boot":
        sys.exit(boot(args[0], int(args[1])))
    if mode == "warm":
        sys.exit(warm(args[0], int(args[1]), args[2], int(args[3])))
    if mode == "trace":
        sys.exit(trace(args[0], args[1:]))
    sys.exit(f"unknown mode {mode!r}")
