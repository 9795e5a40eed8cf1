"""Outside-in layer timing for the benchmark's traced runs.

:func:`install` wraps public functions of every layer of ``repro`` in
timing shims, from outside the package: nothing under ``src/`` changes
and an untraced process never imports this module.  Each shim measures
one call on a per-thread span stack, so a layer's *self* time is its
wall time minus the time its child spans (other wrapped layers) cover.

Two kinds of span are kept in memory and written out when the run ends:

* boundary spans (boot, cell, fork, exit, trace generation, orchestrator
  runs, served requests) are recorded one by one as
  ``(id, name, start, end, parent)``;
* leaf spans on the hot path (cache line runs, translate, TLB, engine
  events, faults, switches, cache I/O) run up to a million times per
  run, so they are aggregated per name as ``[calls, inclusive s, self
  s]``: one record per call would cost more memory than the simulator.

Counts are recorded at the same boundaries from arguments and return
values, so every count and ratio repeats exactly between two traced
runs of the same code; only the seconds move.
"""

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class _ThreadState:
    """One thread's span stack, aggregates and counters."""

    __slots__ = ("stack", "boundary", "stats", "counts", "hierarchies",
                 "thread")

    def __init__(self) -> None:
        #: Child seconds accumulated by each open span; [0] is the root.
        self.stack: List[float] = [0.0]
        #: Ids of the open boundary spans (parents of new ones).
        self.boundary: List[int] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: Cache hierarchies built inside the current cell.
        self.hierarchies: List[Any] = []
        self.thread = threading.get_ident()


class Recorder:
    """In-memory span store shared by every shim of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.spans: List[List[Any]] = []
        #: Registry submit time per queued run id, until the run starts:
        #: feeds ``serve.queue_wait_s``.
        self.submitted: Dict[str, float] = {}
        self.origin = time.perf_counter()

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn: Callable, boundary: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(state, args, result)``
        records counts once the call returns."""
        perf = time.perf_counter
        local = self._local
        new_state = self.state
        spans = self.spans
        ids = self._ids

        def timed(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            stack.append(0.0)
            if boundary:
                span = [next(ids), name, 0.0, 0.0,
                        state.boundary[-1] if state.boundary else None,
                        state.thread]
                spans.append(span)
                state.boundary.append(span[0])
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - started
                child = stack.pop()
                stack[-1] += elapsed
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                if boundary:
                    state.boundary.pop()
                    span[2] = started
                    span[3] = started + elapsed
            if after is not None:
                after(state, args, result)
            return result

        return functools.update_wrapper(timed, fn)

    def merged(self) -> Dict[str, Any]:
        """Every thread's aggregates and counts, summed by name."""
        stats: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, incl, own) in state.stats.items():
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += own
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
        return {"stats": stats, "counts": counts}

    def dump(self, path: str, wall_s: float) -> None:
        """Write spans, aggregates and counts as one JSON document."""
        merged = self.merged()
        document = {
            "wall_s": wall_s,
            "stats": merged["stats"],
            "counts": merged["counts"],
            "spans": [
                {"id": span_id, "name": name,
                 "start": start - self.origin, "end": end - self.origin,
                 "parent": parent, "thread": thread}
                for span_id, name, start, end, parent, thread in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)


def _bump(state: _ThreadState, name: str, value: float = 1) -> None:
    state.counts[name] = state.counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# Count hooks: ``after(state, args, result)`` for the shims that count.
# ---------------------------------------------------------------------------

def _after_run(state, args, result) -> None:
    _bump(state, "hw.cache.run_lines", args[2])


def _after_translate(state, args, result) -> None:
    if result.walked:
        _bump(state, "hw.mmu.walks")
    if result.fault is not None:
        _bump(state, "hw.mmu.faults")


def _after_main_lookup(state, args, result) -> None:
    if result is not None:
        _bump(state, "hw.tlb.main_hits")


def _after_micro_lookup(state, args, result) -> None:
    if result is not None:
        _bump(state, "hw.tlb.micro_hits")


def _after_cell(state, args, result) -> None:
    """Fold the cell's per-core cache statistics into the counts."""
    seen = set()
    for hierarchy in state.hierarchies:
        for level, cache in (("l1i", hierarchy.l1i), ("l1d", hierarchy.l1d),
                             ("l2", hierarchy.l2)):
            if id(cache) in seen:
                continue  # The L2 is shared by every core.
            seen.add(id(cache))
            _bump(state, f"hw.cache.{level}_hits", cache.stats.hits)
            _bump(state, f"hw.cache.{level}_accesses", cache.stats.accesses)
    state.hierarchies.clear()


def _after_orchestrate(state, args, result) -> None:
    _bump(state, "orchestrate.cells", len(args[1]))


def _after_cache_load(state, args, result) -> None:
    if result is not None:
        _bump(state, "orchestrate.cache_hits")


def install(recorder: Recorder) -> None:
    """Wrap every traced layer's public functions in ``recorder`` shims.

    Call before the first simulation object exists, so instances that
    cache bound methods pick up the shims too.
    """
    import repro.experiments.runner  # noqa: F401  (loads every layer)
    from repro.android import zygote
    from repro.core.ptshare import PageTableManager
    from repro.hw.cache import CacheHierarchy
    from repro.hw.mmu import Mmu
    from repro.hw.tlb import MainTlb, MicroTlb
    from repro.kernel.engine import ExecutionEngine
    from repro.kernel.fault import FaultHandler
    from repro.kernel.kernel import Kernel
    from repro.kernel.sched import Scheduler
    from repro.orchestrate import cells
    from repro.orchestrate.cache import ResultCache
    from repro.orchestrate.orchestrator import Orchestrator
    from repro.serve.app import ServeApp, _Handler
    from repro.serve.registry import RunRegistry
    from repro.workloads import tracegen

    # The submit time is stamped inside ServeApp.submit, when the registry
    # creates the record and before it is queued, so the worker cannot
    # reach mark_running first.  No span: the time stays in serve.submit.
    registry_submit = RunRegistry.submit

    def stamped_submit(self, request):
        submitted = time.perf_counter()
        record, created = registry_submit(self, request)
        if created:
            recorder.submitted[record.id] = submitted
        return record, created

    RunRegistry.submit = functools.update_wrapper(stamped_submit,
                                                  registry_submit)

    def after_mark_running(state, args, result) -> None:
        submitted = recorder.submitted.pop(args[1].id, None)
        if submitted is not None:
            _bump(state, "serve.queue_wait_s",
                  time.perf_counter() - submitted)

    methods = [
        (CacheHierarchy, "fetch_run", "hw.cache.run", False, _after_run),
        (CacheHierarchy, "data_run", "hw.cache.run", False, _after_run),
        (CacheHierarchy, "walk_read", "hw.cache.walk", False, None),
        (Mmu, "translate", "hw.mmu", False, _after_translate),
        (MainTlb, "lookup", "hw.tlb.main_lookup", False, _after_main_lookup),
        (MainTlb, "insert", "hw.tlb.main_insert", False, None),
        (MicroTlb, "lookup", "hw.tlb.micro_lookup", False,
         _after_micro_lookup),
        (ExecutionEngine, "execute_event", "kernel.engine.event", False,
         None),
        (ExecutionEngine, "run_kernel_path", "kernel.engine.kpath", False,
         None),
        (FaultHandler, "handle", "kernel.fault", False, None),
        (Kernel, "fork", "kernel.fork", True, None),
        (Kernel, "exit_task", "kernel.exit", True, None),
        (PageTableManager, "share_at_fork", "core.ptshare.share", True, None),
        (PageTableManager, "unshare_slot", "core.ptshare.unshare", False,
         None),
        (Scheduler, "switch_to", "kernel.sched", False, None),
        (Orchestrator, "run", "orchestrate.run", True, _after_orchestrate),
        (ResultCache, "load", "orchestrate.cache_load", False,
         _after_cache_load),
        (ResultCache, "store", "orchestrate.cache_store", False, None),
        (_Handler, "do_POST", "serve.request", True, None),
        (ServeApp, "submit", "serve.submit", False, None),
        (RunRegistry, "mark_running", "serve.mark_running", False,
         after_mark_running),
        (RunRegistry, "wait_finished", "serve.wait", False, None),
    ]
    for owner, attr, name, boundary, after in methods:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr),
                                           boundary, after))

    hierarchy_init = CacheHierarchy.__init__

    def registered_init(self, *args, **kwargs) -> None:
        hierarchy_init(self, *args, **kwargs)
        recorder.state().hierarchies.append(self)

    CacheHierarchy.__init__ = functools.update_wrapper(registered_init,
                                                       hierarchy_init)

    # Module functions are also bound by name in the modules that import
    # them; rebind every such reference.
    functions = [
        (zygote.boot_android, "android.boot", True, None),
        (tracegen.build_app_trace, "workloads.tracegen", True, None),
        (cells.execute_cell, "cell", True, _after_cell),
    ]
    for original, name, boundary, after in functions:
        shim = recorder.wrap(name, original, boundary, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, shim)


def _self_s(stats, *names) -> float:
    return sum(stats[name][2] for name in names if name in stats)


def _calls(stats, *names) -> int:
    return int(sum(stats[name][0] for name in names if name in stats))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metric table of one dumped trace.

    ``*_s`` are host seconds of self time unless the name says
    otherwise (``android.boot_s`` is inclusive); every other value is a
    count or a ratio of counts and repeats exactly run to run.
    """
    stats, counts = trace["stats"], trace["counts"]
    wall = trace["wall_s"]
    boot_calls = _calls(stats, "android.boot")
    boot_s = stats["android.boot"][1] if boot_calls else 0.0
    main_lookups = _calls(stats, "hw.tlb.main_lookup")
    micro_lookups = _calls(stats, "hw.tlb.micro_lookup")
    loads = _calls(stats, "orchestrate.cache_load")
    metrics = {
        "android.boot_calls": boot_calls,
        "android.boot_s": boot_s,
        "android.boot_share": _ratio(boot_s, wall),
        "hw.cache.run_calls": _calls(stats, "hw.cache.run"),
        "hw.cache.run_lines": int(counts.get("hw.cache.run_lines", 0)),
        "hw.cache.walk_reads": _calls(stats, "hw.cache.walk"),
        "hw.cache.self_s": _self_s(stats, "hw.cache.run", "hw.cache.walk"),
        "hw.mmu.translations": _calls(stats, "hw.mmu"),
        "hw.mmu.walks": int(counts.get("hw.mmu.walks", 0)),
        "hw.mmu.faults": int(counts.get("hw.mmu.faults", 0)),
        "hw.mmu.self_s": _self_s(stats, "hw.mmu"),
        "hw.tlb.main_lookups": main_lookups,
        "hw.tlb.main_hit_ratio": _ratio(counts.get("hw.tlb.main_hits", 0),
                                        main_lookups),
        "hw.tlb.micro_lookups": micro_lookups,
        "hw.tlb.micro_hit_ratio": _ratio(
            counts.get("hw.tlb.micro_hits", 0), micro_lookups),
        "hw.tlb.self_s": _self_s(stats, "hw.tlb.main_lookup",
                                 "hw.tlb.main_insert",
                                 "hw.tlb.micro_lookup"),
        "kernel.engine.events": _calls(stats, "kernel.engine.event"),
        "kernel.engine.self_s": _self_s(stats, "kernel.engine.event"),
        "kernel.engine.kpath_calls": _calls(stats, "kernel.engine.kpath"),
        "kernel.engine.kpath_self_s": _self_s(stats, "kernel.engine.kpath"),
        "kernel.fault.calls": _calls(stats, "kernel.fault"),
        "kernel.fault.self_s": _self_s(stats, "kernel.fault"),
        "kernel.fork_calls": _calls(stats, "kernel.fork"),
        "kernel.fork_s": _self_s(stats, "kernel.fork"),
        "kernel.exit_calls": _calls(stats, "kernel.exit"),
        "kernel.exit_s": _self_s(stats, "kernel.exit"),
        "core.ptshare.shares": _calls(stats, "core.ptshare.share"),
        "core.ptshare.share_s": _self_s(stats, "core.ptshare.share"),
        "core.ptshare.unshares": _calls(stats, "core.ptshare.unshare"),
        "core.ptshare.unshare_s": _self_s(stats, "core.ptshare.unshare"),
        "kernel.sched.switches": _calls(stats, "kernel.sched"),
        "kernel.sched.self_s": _self_s(stats, "kernel.sched"),
        "workloads.tracegen_calls": _calls(stats, "workloads.tracegen"),
        "workloads.tracegen_s": _self_s(stats, "workloads.tracegen"),
        "orchestrate.cells": int(counts.get("orchestrate.cells", 0)),
        "orchestrate.self_s": _self_s(stats, "orchestrate.run"),
        "orchestrate.cache_loads": loads,
        "orchestrate.cache_hit_ratio": _ratio(
            counts.get("orchestrate.cache_hits", 0), loads),
        "orchestrate.cache_load_s": _self_s(stats, "orchestrate.cache_load"),
        "orchestrate.cache_stores": _calls(stats, "orchestrate.cache_store"),
        "orchestrate.cache_store_s": _self_s(stats,
                                             "orchestrate.cache_store"),
        "serve.requests": _calls(stats, "serve.request"),
        "serve.submit_s": _self_s(stats, "serve.submit"),
        "serve.queue_wait_s": counts.get("serve.queue_wait_s", 0.0),
        "serve.request_self_s": _self_s(stats, "serve.request"),
    }
    for level in ("l1i", "l1d", "l2"):
        metrics[f"hw.cache.{level}_hit_ratio"] = _ratio(
            counts.get(f"hw.cache.{level}_hits", 0),
            counts.get(f"hw.cache.{level}_accesses", 0))
    attributed = sum(value for name, value in metrics.items()
                     if name.endswith("_s") and name != "android.boot_s"
                     and name != "serve.queue_wait_s")
    metrics["unattributed_s"] = wall - attributed
    return metrics
