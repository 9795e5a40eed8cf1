"""The trace subsystem: ring semantics, exports, aggregation, overhead.

Covers the contracts ``repro.trace`` promises: ring wraparound with
drop-immune per-type counts, NullTracer's zero-cost disabled path
(structurally and by wall clock), lossless JSONL and Chrome round
trips, the aggregation views, and serial-vs-parallel payload equality
through the orchestrator.
"""

import gc
import json
import statistics
import time

import pytest

from repro.android.zygote import ZygoteCalibration, boot_android
from repro.common.constants import PAGE_SIZE
from repro.common.events import load, store
from repro.common.perms import MapFlags, Prot
from repro.experiments.common import QUICK
from repro.experiments.tracing import COUNTER_PAIRS, run_trace
from repro.kernel.config import shared_ptp_config
from repro.kernel.kernel import Kernel
from repro.orchestrate import Orchestrator
from repro.trace import (
    NULL_TRACER,
    EventType,
    NullTracer,
    TraceEvent,
    Tracer,
    chrome_trace_dict,
    counts_by_type,
    fault_timelines,
    parse_chrome,
    read_jsonl,
    time_histogram,
    top_unshare_offenders,
    write_chrome,
    write_jsonl,
)
from repro.trace.aggregate import ptp_region

ANON = MapFlags.PRIVATE | MapFlags.ANONYMOUS


def synthetic_events():
    """A tiny stream exercising every optional field combination."""
    return [
        TraceEvent(0, 0.0, EventType.PAGE_FAULT, pid=3, vaddr=0x1000,
                   cause="translation"),
        TraceEvent(1, 4.0, EventType.SOFT_FAULT, pid=3, vaddr=0x2000,
                   cause="warm-file"),
        TraceEvent(2, 5.0, EventType.PTP_UNSHARE, pid=3, ptp=2,
                   cause="write", value=1),
        TraceEvent(3, 9.0, EventType.CTX_SWITCH, pid=-1, cause="core0",
                   value=1),
    ]


class TestTraceEvent:
    def test_dict_round_trip(self):
        for event in synthetic_events():
            assert TraceEvent.from_dict(event.to_dict()) == event

    def test_to_dict_omits_unset_fields(self):
        record = TraceEvent(0, 1.0, EventType.FORK, pid=2).to_dict()
        assert "vaddr" not in record and "ptp" not in record
        assert record["etype"] == "fork"

    def test_from_dict_tolerates_extra_keys(self):
        record = synthetic_events()[0].to_dict()
        record["cell"] = "stock"  # The multi-cell JSONL export adds this.
        assert TraceEvent.from_dict(record) == synthetic_events()[0]

    def test_equality_and_hash(self):
        first, second = synthetic_events()[0], synthetic_events()[0]
        assert first == second
        assert hash(first) == hash(second)
        assert first != synthetic_events()[1]


class TestRing:
    def test_wraparound_keeps_newest_and_counts_all(self):
        tracer = Tracer(ring_size=4)
        for _ in range(10):
            tracer.emit(EventType.PAGE_FAULT, pid=1)
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [e.seq for e in tracer.events()] == [6, 7, 8, 9]
        # Per-type counts are updated at emit time: drop-immune.
        assert tracer.counts == {"page_fault": 10}

    def test_summary_accounting(self):
        tracer = Tracer(ring_size=4)
        for _ in range(6):
            tracer.emit(EventType.TLB_FILL)
        summary = tracer.summary()
        assert summary["emitted"] == 6
        assert summary["dropped"] == 2
        assert summary["retained"] == 4
        assert summary["ring_size"] == 4
        assert summary["counts"] == {"tlb_fill": 6}

    def test_clock_stamps_time(self):
        tracer = Tracer(ring_size=8)
        tracer.bind_clock(lambda: 42.5)
        tracer.emit(EventType.FORK, pid=1)
        assert tracer.events()[0].time == 42.5

    def test_ring_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(ring_size=0)

    @pytest.mark.parametrize("bad", [2.5, "64", None, True])
    def test_ring_size_must_be_an_integer(self, bad):
        """Floats would make ``deque(maxlen=...)`` raise far from the
        call site; bools are almost certainly a caller bug."""
        with pytest.raises(ValueError):
            Tracer(ring_size=bad)

    def test_clear_resets_everything(self):
        tracer = Tracer(ring_size=4)
        tracer.emit(EventType.FORK)
        tracer.clear()
        assert tracer.emitted == 0
        assert tracer.events() == []
        assert tracer.counts == {}


class _CountingNullTracer(NullTracer):
    """A disabled tracer that counts emit calls; guards must keep it 0."""

    def __init__(self):
        self.calls = 0

    def emit(self, *args, **kwargs):
        self.calls += 1


def _run_traced_workload(tracer):
    """Boot a small runtime and churn forks under the given tracer."""
    kernel = Kernel(config=shared_ptp_config(), tracer=tracer)
    runtime = boot_android(kernel, calibration=ZygoteCalibration.small())
    for index in range(3):
        child, _ = runtime.fork_app(f"overhead-{index}")
        kernel.exit_task(child)
    return kernel


class TestNullTracer:
    def test_singleton_is_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.summary() == {
            "emitted": 0, "dropped": 0, "retained": 0, "ring_size": 0,
            "counts": {},
        }
        NULL_TRACER.emit(EventType.FORK)  # Safe no-op even unguarded.
        assert NULL_TRACER.events() == []

    def test_disabled_tracer_never_reaches_emit(self):
        """Every instrumented hot path must branch on ``enabled``."""
        counting = _CountingNullTracer()
        _run_traced_workload(counting)
        assert counting.calls == 0

    def test_disabled_overhead_within_five_percent(self):
        """Paired wall clock: disabled tracing must not cost more than
        5% over an enabled tracer doing the same run (it should in
        fact be faster; the margin absorbs scheduler noise). The arms
        run in back-to-back pairs, each leading every other pair, and
        the median pair ratio is compared, so a shift in host speed
        lands on both runs of a pair and a pair split by one is
        outvoted. As in ``timeit``, the collector is paused while a
        run is timed, so a full collection of garbage left by earlier
        runs or tests is not charged to whichever arm hit it."""
        def timed(tracer):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                _run_traced_workload(tracer)
                return time.perf_counter() - start
            finally:
                gc.enable()

        ratios = []
        for index in range(20):
            if index % 2:
                enabled = timed(Tracer())
                disabled = timed(None)  # Kernel substitutes NULL_TRACER.
            else:
                disabled = timed(None)
                enabled = timed(Tracer())
            ratios.append(disabled / enabled)
        assert statistics.median(ratios) <= 1.05


class TestKernelIntegration:
    def test_counts_match_counters_over_kernel_lifetime(self):
        """The counter-agreement invariant on a hand-built workload."""
        tracer = Tracer()
        kernel = Kernel(config=shared_ptp_config(), tracer=tracer)
        task = kernel.create_process("proc")
        vma = kernel.syscalls.mmap(task, 4 * PAGE_SIZE,
                                   Prot.READ | Prot.WRITE, ANON)
        # Read maps the zero page; the store then breaks COW.
        kernel.run(task, [load(vma.start), store(vma.start)])
        child, _ = kernel.fork(task, "child")
        kernel.run(child, [store(vma.start + PAGE_SIZE)])
        kernel.exit_task(child)
        kernel.exit_task(task)
        for event_key, counter_key in COUNTER_PAIRS:
            assert tracer.counts.get(event_key, 0) == getattr(
                kernel.counters, counter_key), event_key
        assert tracer.counts.get("cow_unshare", 0) >= 1

    def test_clock_is_simulated_time(self):
        tracer = Tracer()
        kernel = _run_traced_workload(tracer)
        events = tracer.events()
        assert events, "workload should emit events"
        times = [e.time for e in events]
        assert times == sorted(times)
        assert times[-1] <= kernel.sim_time()


class TestExports:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = synthetic_events()
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    def test_chrome_round_trip(self, tmp_path):
        cells = [("stock", synthetic_events()),
                 ("shared-ptp", synthetic_events()[:2])]
        path = str(tmp_path / "trace.json")
        written = write_chrome(cells, path, other_data={"seed": 7})
        assert written == len(synthetic_events()) + 2
        data = json.loads(open(path).read())  # Must be plain JSON.
        parsed_cells, other = parse_chrome(data)
        assert parsed_cells == cells
        assert other == {"seed": 7}

    def test_jsonl_chrome_cross_round_trip(self, tmp_path):
        """events -> JSONL -> Chrome -> events, losslessly."""
        jsonl_path = str(tmp_path / "events.jsonl")
        write_jsonl(synthetic_events(), jsonl_path)
        reread = read_jsonl(jsonl_path)
        cells, _ = parse_chrome(chrome_trace_dict([("cell", reread)]))
        assert cells == [("cell", synthetic_events())]

    def test_chrome_pid_tid_mapping(self):
        trace = chrome_trace_dict([("stock", synthetic_events())])
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert {e["pid"] for e in instants} == {1}
        # Simulated pid -1 (pre-scheduler kernel work) maps to tid 0.
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e.get("args", {}).get("name"))
                 for e in metadata}
        assert ("process_name", "stock") in names
        assert ("thread_name", "kernel") in names


class TestAggregation:
    def test_counts_by_type(self):
        assert counts_by_type(synthetic_events()) == {
            "ctx_switch": 1, "page_fault": 1, "ptp_unshare": 1,
            "soft_fault": 1,
        }

    def test_fault_timelines_grouped_and_sorted(self):
        timelines = fault_timelines(synthetic_events())
        assert set(timelines) == {3}  # Only fault-like types, pid 3.
        entries = timelines[3]
        assert [e["etype"] for e in entries] == ["page_fault",
                                                 "soft_fault"]
        assert entries[0]["vaddr"] == 0x1000

    def test_time_histogram_buckets_cover_all_events(self):
        histogram = time_histogram(synthetic_events(), buckets=3)
        assert sum(histogram["counts"]) == len(synthetic_events())
        assert histogram["start"] == 0.0 and histogram["end"] == 9.0

    def test_time_histogram_empty_and_invalid(self):
        empty = time_histogram([], buckets=4)
        assert empty["counts"] == [0, 0, 0, 0]
        with pytest.raises(ValueError):
            time_histogram([], buckets=0)

    def test_time_histogram_single_event_stream(self):
        """A one-event span has zero width: the unit-width fallback
        must put the event in the first bucket, not divide by zero."""
        only = [TraceEvent(0, 5.0, EventType.PAGE_FAULT, pid=1,
                           vaddr=0x1000, cause="translation")]
        histogram = time_histogram(only, buckets=4)
        assert histogram["start"] == histogram["end"] == 5.0
        assert histogram["bucket_width"] == 1.0
        assert histogram["counts"] == [1, 0, 0, 0]
        assert sum(histogram["counts"]) == 1

    def test_ptp_region_geography(self):
        assert ptp_region(0x100) == "code/file"
        assert ptp_region(0x9000_0000 >> 21) == "anon"
        assert ptp_region(0xBE00_0000 >> 21) == "stack"

    def test_top_unshare_offenders_ranking(self):
        events = [
            TraceEvent(0, 0.0, EventType.PTP_UNSHARE, pid=1, ptp=7,
                       cause="write"),
            TraceEvent(1, 1.0, EventType.PTP_UNSHARE, pid=1, ptp=7,
                       cause="exit"),
            TraceEvent(2, 2.0, EventType.PTP_UNSHARE, pid=2, ptp=3,
                       cause="exit"),
            TraceEvent(3, 3.0, EventType.FORK, pid=1),  # Ignored.
        ]
        offenders = top_unshare_offenders(events)
        assert [o["ptp"] for o in offenders] == [7, 3]
        assert offenders[0]["unshares"] == 2
        assert offenders[0]["triggers"] == {"write": 1, "exit": 1}

    def test_top_unshare_offenders_empty_stream(self):
        assert top_unshare_offenders([]) == []
        # A stream with no PTP_UNSHARE events is as good as empty.
        assert top_unshare_offenders(
            [TraceEvent(0, 0.0, EventType.FORK, pid=1)]) == []

    def test_top_unshare_offenders_single_event_stream(self):
        only = [TraceEvent(0, 0.0, EventType.PTP_UNSHARE, pid=1, ptp=7,
                           cause="write")]
        offenders = top_unshare_offenders(only)
        assert len(offenders) == 1
        assert offenders[0]["ptp"] == 7
        assert offenders[0]["unshares"] == 1
        assert offenders[0]["triggers"] == {"write": 1}
        assert offenders[0]["region"] == ptp_region(7)


@pytest.mark.slow
class TestOrchestratedTrace:
    def test_serial_and_parallel_payloads_identical(self, warm_workers):
        """The orchestrator contract extends to trace cells: summaries,
        counters, agreement, and raw events match across executors."""
        serial = run_trace("fork", QUICK, orchestrator=Orchestrator())
        parallel = run_trace(
            "fork", QUICK, orchestrator=Orchestrator(executor=warm_workers))
        assert serial.payloads == parallel.payloads
        assert serial.all_agree

    def test_trace_cli_chrome_export(self, tmp_path):
        """The acceptance path: ``satr trace fork`` writes a Chrome
        trace whose per-cell event counts equal the run's counters."""
        from repro.experiments import runner

        out = tmp_path / "trace-fork.json"
        code = runner.trace_main([
            "fork", "--scale", "quick", "--format", "chrome",
            "-o", str(out), "--no-cache",
        ])
        assert code == 0
        data = json.loads(out.read_text())
        cells, other = parse_chrome(data)
        assert len(cells) == 2
        for label, events in cells:
            counts = counts_by_type(events)
            counters = other["counters"][label]
            assert counts.get("cow_unshare", 0) == counters["cow_faults"]
            assert counts.get("soft_fault", 0) == counters["soft_faults"]
            assert other["summaries"][label]["dropped"] == 0
