"""The metrics subsystem: registry, sampler, exposition, bench gate.

Covers the contracts ``repro.metrics`` promises: schema-first
validation (every exposed series has a declaration), sampler cadence
over lifecycle boundaries and event intervals, a Prometheus exposition
that round-trips through the parser with full ``# TYPE`` coverage,
deterministic JSONL, TLB flush-kind accounting, serial-vs-parallel
payload equality through the orchestrator, and the ``satr bench``
regression comparator.
"""

import copy
import json

import pytest

from repro.common.constants import DOMAIN_USER
from repro.experiments.bench import compare_reports
from repro.experiments.common import QUICK, build_runtime
from repro.experiments.metricscells import run_metrics
from repro.hw.tlb import MainTlb, MicroTlb, TlbEntry
from repro.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Histogram,
    MetricError,
    MetricSpec,
    MetricsRegistry,
    Sampler,
    collect,
    default_registry,
    escape_label_value,
    flatten_values,
    format_number,
    parse_exposition,
    render_exposition,
    to_prometheus,
)
from repro.metrics.summary import series_of, sparkline
from repro.orchestrate import Orchestrator


@pytest.fixture(scope="module")
def sampled_runtime():
    """A shared-PTP runtime sampled through boot, a fork, and an exit."""
    sampler = Sampler(every_events=500)
    runtime = build_runtime("shared-ptp", seed=7, observers=(sampler,))
    child, _ = runtime.fork_app("app")
    runtime.kernel.exit_task(child)
    sampler.finalize(runtime.kernel)
    return runtime, sampler


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_unknown_kind_rejected(self):
        with pytest.raises(MetricError):
            MetricSpec("m", "summary", "nope")

    def test_labelled_histogram_validates_per_label_buckets(self):
        """A labelled histogram (the serve per-target latency shape)
        carries one Histogram value per label value."""
        registry = MetricsRegistry([
            MetricSpec("lat", "histogram", "h", label="target"),
        ])
        good = Histogram([1.0])
        good.observe(0.5)
        registry.validate({"lat": {"fork": good.to_value()}})
        registry.validate({"lat": {}})  # No observations yet is fine.
        for bad in (3, good.to_value(), {"fork": {"sum": 1}},
                    {"fork": 2.0}):
            with pytest.raises(MetricError, match="labelled histogram"):
                registry.validate({"lat": bad})

    def test_duplicate_name_rejected(self):
        spec = MetricSpec("m", "gauge", "twice")
        with pytest.raises(MetricError):
            MetricsRegistry([spec, spec])

    def test_validate_rejects_undeclared_and_missing(self):
        registry = MetricsRegistry([MetricSpec("m", "gauge", "h")])
        with pytest.raises(MetricError, match="undeclared"):
            registry.validate({"m": 1, "other": 2})
        with pytest.raises(MetricError, match="missing"):
            registry.validate({})

    def test_validate_rejects_mistyped_values(self):
        registry = MetricsRegistry([
            MetricSpec("plain", "gauge", "h"),
            MetricSpec("tagged", "counter", "h", label="kind"),
            MetricSpec("dist", "histogram", "h"),
        ])
        good_hist = Histogram([1.0]).to_value()
        good = {"plain": 1, "tagged": {"a": 2}, "dist": good_hist}
        registry.validate(good)  # Sanity: the well-shaped sample passes.
        for name, bad in (("plain", "x"), ("tagged", 3),
                          ("tagged", {"a": "x"}), ("dist", {"sum": 1})):
            with pytest.raises(MetricError):
                registry.validate({**good, name: bad})

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram([10.0, 20.0, 30.0])
        for value in (5, 15, 16, 35):
            histogram.observe(value)
        assert histogram.to_value() == {
            "buckets": {"10": 1, "20": 3, "30": 3, "+Inf": 4},
            "sum": 71.0,
            "count": 4,
        }

    def test_histogram_bounds_must_ascend(self):
        with pytest.raises(MetricError):
            Histogram([])
        with pytest.raises(MetricError):
            Histogram([2.0, 1.0])

    def test_format_number_is_deterministic(self):
        assert format_number(3) == "3"
        assert format_number(3.0) == "3"
        assert format_number(0.25) == "0.25"
        assert format_number(True) == "1"

    def test_flatten_values_shape(self):
        registry = MetricsRegistry([
            MetricSpec("plain", "gauge", "h"),
            MetricSpec("tagged", "counter", "h", label="kind"),
            MetricSpec("dist", "histogram", "h"),
        ])
        histogram = Histogram([1.0])
        histogram.observe(0.5)
        flat = flatten_values(registry, {
            "plain": 7,
            "tagged": {"b": 2, "a": 1},
            "dist": histogram.to_value(),
        })
        assert flat == {
            "plain": 7,
            'tagged{kind="a"}': 1,
            'tagged{kind="b"}': 2,
            "dist_sum": 0.5,
            "dist_count": 1,
        }

    def test_flatten_values_labelled_histogram(self):
        registry = MetricsRegistry([
            MetricSpec("lat", "histogram", "h", label="target"),
        ])
        histogram = Histogram([1.0])
        histogram.observe(0.5)
        histogram.observe(2.0)
        flat = flatten_values(registry, {"lat": {"fork":
                                                 histogram.to_value()}})
        assert flat == {
            'lat{target="fork"}_sum': 2.5,
            'lat{target="fork"}_count': 2,
        }


# ---------------------------------------------------------------------------
# Sampler.
# ---------------------------------------------------------------------------

class TestSampler:
    @pytest.mark.parametrize("bad", [-1, 1.5, True, "2000"])
    def test_every_events_validation(self, bad):
        with pytest.raises(ValueError):
            Sampler(every_events=bad)

    def test_interval_cadence(self, sampled_runtime):
        """One interval sample per 500 events, within one interval of
        the event total (boundaries reset the pending counter)."""
        runtime, sampler = sampled_runtime
        intervals = [s for s in sampler.samples
                     if s["site"] == "interval"]
        assert intervals
        assert len(intervals) <= sampler.events_seen // 500
        events = [s["events"] for s in sampler.samples]
        assert events == sorted(events)

    def test_lifecycle_sites_present(self, sampled_runtime):
        runtime, sampler = sampled_runtime
        sites = {s["site"] for s in sampler.samples}
        assert {"exec", "mmap", "fork", "exit", "final"} <= sites

    def test_sequence_numbers_and_validation(self, sampled_runtime):
        runtime, sampler = sampled_runtime
        assert [s["seq"] for s in sampler.samples] == list(
            range(len(sampler.samples)))
        registry = default_registry()
        for sample in sampler.samples:
            registry.validate(sample["values"])

    def test_time_is_simulated_and_monotonic(self, sampled_runtime):
        runtime, sampler = sampled_runtime
        times = [s["time"] for s in sampler.samples]
        assert times == sorted(times)
        assert times[-1] == runtime.kernel.sim_time()

    def test_final_values_match_last_sample(self, sampled_runtime):
        runtime, sampler = sampled_runtime
        assert sampler.final_values() == sampler.samples[-1]["values"]

    def test_zero_interval_means_lifecycle_only(self):
        sampler = Sampler(every_events=0)
        for _ in range(50):
            sampler.on_event(kernel=None)  # Must never try to sample.
        assert sampler.samples == []
        assert sampler.events_seen == 50

    def test_collect_gauges_agree_with_kernel(self, sampled_runtime):
        """The snapshot derives from the same introspection the
        experiments use: NEED_COPY slots equal shared slots, fork and
        event counters match the kernel's."""
        runtime, sampler = sampled_runtime
        kernel = runtime.kernel
        values = collect(kernel, sampler.events_seen)
        assert values["satr_need_copy_slots"] == (
            values["satr_ptp_slots"]["shared"])
        assert values["satr_ptp_slots"]["shared"] == sum(
            kernel.shared_ptp_count(t) for t in kernel.live_tasks())
        assert values["satr_forks_total"] == kernel.counters.forks
        assert values["satr_events_total"] == sampler.events_seen
        assert values["satr_live_tasks"] == len(kernel.live_tasks())


# ---------------------------------------------------------------------------
# TLB flush-kind accounting (the TlbStats satellite).
# ---------------------------------------------------------------------------

def _entry(vpn, asid=1, global_=False):
    return TlbEntry(vpn=vpn, asid=asid, pfn=vpn + 1000, writable=False,
                    global_=global_, domain=DOMAIN_USER)


class TestTlbFlushKinds:
    def test_main_tlb_breakdown(self):
        tlb = MainTlb()
        tlb.insert(_entry(1, asid=1))
        tlb.insert(_entry(2, asid=2))
        tlb.insert(_entry(3, asid=1, global_=True))
        tlb.flush_asid(1)
        tlb.flush_va(3)
        tlb.flush_non_global()
        tlb.flush_all()
        assert tlb.stats.flushes_by_kind == {
            "asid": 1, "va": 1, "non-global": 1, "all": 1,
        }
        assert tlb.stats.flushes == 4

    def test_micro_tlb_breakdown(self):
        tlb = MicroTlb(entries=8)
        tlb.insert(_entry(1))
        tlb.flush_va(1)
        tlb.insert(_entry(2))
        tlb.flush()
        assert tlb.stats.flushes_by_kind == {"va": 1, "all": 1}

    def test_entries_flushed_still_totals(self):
        """The breakdown is additive: the pre-existing aggregate
        counters keep their meaning."""
        tlb = MainTlb()
        tlb.insert(_entry(1, asid=1))
        tlb.insert(_entry(2, asid=1))
        tlb.flush_asid(1)
        assert tlb.stats.entries_flushed == 2
        assert tlb.stats.flushes_by_kind == {"asid": 1}


# ---------------------------------------------------------------------------
# Exposition round trip.
# ---------------------------------------------------------------------------

def _payloads(sampler):
    return [{"target": "fork", "label": "shared-ptp",
             "config": "shared-ptp", "every": 500,
             "samples": sampler.samples}]


class TestExposition:
    def test_prometheus_round_trip_with_type_coverage(
            self, sampled_runtime):
        """Every sample line parses and belongs to a declared # TYPE;
        every registry metric appears in the exposition."""
        runtime, sampler = sampled_runtime
        registry = default_registry()
        text = to_prometheus(registry, "fork", _payloads(sampler))
        parsed = parse_exposition(text)
        declared = {spec.name: spec.kind for spec in registry.specs()}
        assert parsed["types"] == declared
        assert set(parsed["helps"]) == set(declared)
        sampled_metrics = {s["metric"] for s in parsed["samples"]}
        assert sampled_metrics == set(declared)
        for sample in parsed["samples"]:
            assert sample["labels"]["target"] == "fork"
            assert sample["labels"]["config"] == "shared-ptp"

    def test_prometheus_values_match_final_snapshot(
            self, sampled_runtime):
        runtime, sampler = sampled_runtime
        registry = default_registry()
        text = to_prometheus(registry, "fork", _payloads(sampler))
        parsed = parse_exposition(text)
        final = sampler.final_values()
        by_series = {
            (s["series"], s["labels"].get("kind")): s["value"]
            for s in parsed["samples"]
        }
        shared = final["satr_ptp_slots"]["shared"]
        assert by_series[("satr_ptp_slots", "shared")] == shared
        assert by_series[("satr_need_copy_slots", None)] == (
            final["satr_need_copy_slots"])

    def test_histogram_buckets_ascend(self, sampled_runtime):
        runtime, sampler = sampled_runtime
        text = to_prometheus(default_registry(), "fork",
                             _payloads(sampler))
        bounds = [line.split('le="')[1].split('"')[0]
                  for line in text.splitlines()
                  if line.startswith(
                      "satr_pagetable_bytes_per_process_bucket")]
        per_cell = bounds[: bounds.index("+Inf") + 1]
        assert per_cell[-1] == "+Inf"
        numeric = [float(b) for b in per_cell[:-1]]
        assert numeric == sorted(numeric)

    def test_parser_rejects_undeclared_sample(self):
        with pytest.raises(MetricError, match="no preceding"):
            parse_exposition('mystery_metric{a="b"} 1\n')

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(MetricError, match="malformed"):
            parse_exposition("# TYPE incomplete\n")
        with pytest.raises(MetricError, match="malformed"):
            parse_exposition("# TYPE m gauge\nm{unclosed 1\n")
        with pytest.raises(MetricError, match="non-numeric"):
            parse_exposition("# TYPE m gauge\nm abc\n")

    def test_jsonl_is_deterministic_and_sorted(self, sampled_runtime):
        from repro.metrics import jsonl_lines

        runtime, sampler = sampled_runtime
        first = list(jsonl_lines("fork", _payloads(sampler)))
        second = list(jsonl_lines("fork", _payloads(sampler)))
        assert first == second
        assert len(first) == len(sampler.samples)
        record = json.loads(first[0])
        assert list(record) == sorted(record)
        assert record["target"] == "fork"
        assert record["config"] == "shared-ptp"

    def test_sparkline_and_series(self):
        assert sparkline([]) == ""
        assert sparkline([5.0]) == "▁"
        line = sparkline([0, 1, 2, 3], width=4)
        assert line == "▁▃▆█"
        samples = [{"values": {"m": 1, "t": {"a": 2}}},
                   {"values": {"m": 3, "t": {"a": 4}}}]
        assert series_of(samples, "m") == [1, 3]
        assert series_of(samples, "t", "a") == [2, 4]
        assert series_of(samples, "t", "zzz") == [0, 0]


# ---------------------------------------------------------------------------
# Generic snapshot rendering + label escaping (the serve /metrics path).
# ---------------------------------------------------------------------------

class TestRenderExposition:
    def _registry(self):
        return MetricsRegistry([
            MetricSpec("plain_total", "counter", "plain counter"),
            MetricSpec("tagged_total", "counter", "labelled counter",
                       label="kind"),
            MetricSpec("level", "gauge", "plain gauge"),
            MetricSpec("lat_seconds", "histogram", "labelled histogram",
                       label="target"),
        ])

    def _values(self):
        histogram = Histogram([0.1, 1.0])
        histogram.observe(0.05)
        histogram.observe(0.5)
        return {
            "plain_total": 3,
            "tagged_total": {"a": 1, "b": 2},
            "level": 0.25,
            "lat_seconds": {"fork": histogram.to_value()},
        }

    def test_content_type_is_prometheus_text(self):
        assert PROMETHEUS_CONTENT_TYPE == (
            "text/plain; version=0.0.4; charset=utf-8")

    def test_round_trip_with_type_coverage(self):
        registry = self._registry()
        text = render_exposition(registry, self._values())
        parsed = parse_exposition(text)
        assert parsed["types"] == {spec.name: spec.kind
                                   for spec in registry.specs()}
        by_series = {(s["series"], tuple(sorted(s["labels"].items()))):
                     s["value"] for s in parsed["samples"]}
        assert by_series[("plain_total", ())] == 3
        assert by_series[("tagged_total", (("kind", "b"),))] == 2
        assert by_series[("level", ())] == 0.25
        assert by_series[("lat_seconds_count",
                          (("target", "fork"),))] == 2
        assert by_series[("lat_seconds_bucket",
                          (("le", "0.1"), ("target", "fork")))] == 1
        assert by_series[("lat_seconds_bucket",
                          (("le", "+Inf"), ("target", "fork")))] == 2

    def test_unlabelled_series_render_without_braces(self):
        lines = render_exposition(self._registry(),
                                  self._values()).splitlines()
        assert "plain_total 3" in lines
        assert "level 0.25" in lines

    def test_rejects_invalid_snapshot(self):
        with pytest.raises(MetricError):
            render_exposition(self._registry(),
                              {"plain_total": "not a number"})

    def test_escape_label_value_order_is_reversible(self):
        hostile = 'back\\slash "quoted"\nnewline'
        escaped = escape_label_value(hostile)
        assert escaped == 'back\\\\slash \\"quoted\\"\\nnewline'
        assert "\n" not in escaped

    def test_hostile_label_values_round_trip(self):
        """A label value carrying the three special characters must
        render to a parseable line and parse back verbatim."""
        registry = MetricsRegistry([
            MetricSpec("tagged_total", "counter", "h", label="kind"),
        ])
        hostile = 'a\\b "c"\nd'
        text = render_exposition(registry,
                                 {"tagged_total": {hostile: 5}})
        assert len(text.splitlines()) == 3  # HELP, TYPE, one sample.
        parsed = parse_exposition(text)
        (sample,) = parsed["samples"]
        assert sample["labels"]["kind"] == hostile
        assert sample["value"] == 5


# ---------------------------------------------------------------------------
# The bench comparator (pure logic; no timing).
# ---------------------------------------------------------------------------

def _report(wall=1.0, gauge=81, samples=10):
    return {
        "scale": "quick", "seed": 7, "every": 2000, "runs_per_mode": 2,
        "targets": {
            "fork": {
                "config": "shared-ptp",
                "wall_off_s": wall, "wall_on_s": wall * 1.01,
                "overhead_pct": 1.0, "off_within_5pct_of_on": True,
                "samples": samples,
                "final_gauges": {"satr_need_copy_slots": gauge},
            },
        },
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        assert compare_reports(_report(), _report()) == []

    def test_faster_current_passes(self):
        assert compare_reports(_report(wall=0.5), _report(wall=1.0)) == []

    def test_two_x_slower_fails(self):
        problems = compare_reports(_report(wall=2.0), _report(wall=1.0))
        assert any("wall_off_s regression" in p for p in problems)
        assert any("wall_on_s regression" in p for p in problems)

    def test_within_tolerance_passes(self):
        assert compare_reports(_report(wall=1.1), _report(wall=1.0)) == []

    def test_gauge_drift_fails_even_when_fast(self):
        problems = compare_reports(_report(wall=0.5, gauge=82),
                                   _report(wall=1.0, gauge=81))
        assert any("gauge drift" in p for p in problems)

    def test_sample_count_drift_fails(self):
        problems = compare_reports(_report(samples=11), _report(samples=10))
        assert any("sample count drift" in p for p in problems)

    def test_gauge_appearing_or_disappearing_fails(self):
        current = _report()
        del current["targets"]["fork"]["final_gauges"][
            "satr_need_copy_slots"]
        current["targets"]["fork"]["final_gauges"]["satr_new"] = 1
        problems = compare_reports(current, _report())
        assert any("disappeared" in p for p in problems)
        assert any("new gauge" in p for p in problems)

    def test_missing_target_fails(self):
        current = _report()
        current["targets"] = {}
        problems = compare_reports(current, _report())
        assert problems == ["fork: missing from current report"]

    def test_mismatched_settings_not_comparable(self):
        current = _report()
        current["every"] = 500
        problems = compare_reports(current, _report())
        assert problems == [
            "every mismatch: current=500 baseline=2000 (not comparable)"
        ]

    def test_tolerance_parameter_respected(self):
        current, baseline = _report(wall=1.3), _report(wall=1.0)
        assert compare_reports(current, baseline, tolerance=0.5) == []
        assert compare_reports(current, baseline, tolerance=0.1)


# ---------------------------------------------------------------------------
# Orchestrated runs and the CLI (the acceptance paths).
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestOrchestratedMetrics:
    def test_serial_and_parallel_payloads_identical(self, warm_workers):
        """The orchestrator contract extends to metrics cells: the
        sample series match byte for byte across executors."""
        serial = run_metrics("fork", QUICK, orchestrator=Orchestrator(),
                             every=1000)
        parallel = run_metrics(
            "fork", QUICK, orchestrator=Orchestrator(executor=warm_workers),
            every=1000)
        assert serial.payloads == parallel.payloads
        assert serial.ok
        assert json.dumps(serial.payloads, sort_keys=True) == (
            json.dumps(parallel.payloads, sort_keys=True))

    def test_sampling_interval_is_in_the_cache_key(self):
        """Cells sampled at different cadences must never collide in
        the result cache."""
        from repro.experiments.metricscells import metrics_cells

        coarse = metrics_cells("fork", QUICK, every=2000)
        fine = metrics_cells("fork", QUICK, every=500)
        assert {c.digest() for c in coarse}.isdisjoint(
            {c.digest() for c in fine})

    def test_metrics_cli_prom_export(self, tmp_path):
        """The CI smoke path: ``satr metrics fork --format prom``
        writes an exposition that parses with full # TYPE coverage."""
        from repro.experiments import runner

        out = tmp_path / "metrics-fork.prom"
        code = runner.metrics_main([
            "fork", "--scale", "quick", "--format", "prom",
            "-o", str(out), "--no-cache",
        ])
        assert code == 0
        parsed = parse_exposition(out.read_text())
        declared = {s.name for s in default_registry().specs()}
        assert set(parsed["types"]) == declared
        assert {s["metric"] for s in parsed["samples"]} == declared
        configs = {s["labels"]["config"] for s in parsed["samples"]}
        assert configs == {"shared-ptp", "stock"}

    def test_bench_cli_compare_detects_synthetic_regression(
            self, tmp_path, capsys):
        """``satr bench --compare`` must pass against its own fresh
        baseline and fail against a doctored 2x-slower one."""
        from repro.experiments import runner

        baseline_path = tmp_path / "BENCH_metrics.json"
        code = runner.bench_main([
            "--scale", "quick", "--runs", "1",
            "-o", str(baseline_path),
        ])
        assert code == 0
        baseline = json.loads(baseline_path.read_text())

        # Clean gate: fresh run against its own machine's baseline
        # (generous tolerance absorbs CI timer noise).
        code = runner.bench_main([
            "--scale", "quick", "--runs", "1",
            "--compare", str(baseline_path), "--tolerance", "3.0",
        ])
        assert code == 0

        # Doctored baseline: everything took half the time, i.e. the
        # current run is a 2x wall regression -> non-zero exit.
        doctored = copy.deepcopy(baseline)
        for row in doctored["targets"].values():
            row["wall_off_s"] = round(row["wall_off_s"] / 2.0, 4)
            row["wall_on_s"] = round(row["wall_on_s"] / 2.0, 4)
        doctored_path = tmp_path / "doctored.json"
        doctored_path.write_text(json.dumps(doctored))
        capsys.readouterr()
        code = runner.bench_main([
            "--scale", "quick", "--runs", "1",
            "--compare", str(doctored_path), "--tolerance", "0.15",
        ])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
