"""The orchestration subsystem: cells, cache, executors, determinism.

The load-bearing guarantee: serial, parallel and cache-replayed runs of
the same cell list produce byte-identical rendered reports.
"""

import hashlib
import json
import os
import sys
import threading
import time

import pytest

from repro import __version__
from repro.experiments import common, fork, ipc, launch, steady
from repro.experiments.common import (
    QUICK,
    SCALES,
    Scale,
    scale_from_params,
    scale_to_params,
)
from repro.experiments.runner import RunContext, plan_target, run_target
from repro.kernel.counters import Counters
from repro.orchestrate import (
    BoundedMemo,
    Cell,
    Orchestrator,
    ResultCache,
    Telemetry,
    canonical_json,
    canonicalize,
    execute_cell,
    jsonable,
    kernel_config_fields,
    resolve_cell_fn,
)
from repro.orchestrate import cache as cache_module
from repro.orchestrate.cells import _config_fields
from tests import test_cache_keys

# A daemon, dispatcher or serving thread that dies fails its test.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning")

TINY = Scale(name="tiny", launch_rounds=2, fork_rounds=2, steady_rounds=1,
             ipc_invocations=25, apps=("Angrybirds", "Email"),
             revisit_passes=0, base_burst=500)


def tiny_cell(value: int = 1) -> Cell:
    """A cheap cell backed by the echo function below."""
    return Cell(experiment="echo", cell_id=f"v{value}",
                fn="tests.test_orchestrate:echo_cell",
                params={"value": value})


def echo_cell(params):
    """Module-level so warm workers and resolve_cell_fn can find it."""
    return {"value": params["value"], "doubled": params["value"] * 2}


def failing_cell(params):
    raise RuntimeError(f"deliberate failure for {params['value']}")


class TestCellBasics:
    def test_digest_is_stable(self):
        assert tiny_cell(3).digest() == tiny_cell(3).digest()

    def test_digest_covers_params(self):
        assert tiny_cell(3).digest() != tiny_cell(4).digest()

    def test_digest_covers_config_fields(self):
        base = fork.table4_cells(TINY)[0]
        changed = Cell(
            experiment=base.experiment, cell_id=base.cell_id, fn=base.fn,
            params=base.params,
            config_fields=kernel_config_fields(
                "shared-ptp", unshare_copy_referenced_only=True),
        )
        assert base.digest() != changed.digest()

    def test_digest_covers_scale_and_seed(self):
        by_scale = {fork.table4_cells(s)[0].digest() for s in (TINY, QUICK)}
        assert len(by_scale) == 2
        by_seed = {fork.table4_cells(TINY, seed=s)[0].digest()
                   for s in (7, 8)}
        assert len(by_seed) == 2

    def test_digest_is_hashed_once_per_cell(self):
        cell = tiny_cell(3)
        assert cell.digest() is cell.digest()
        # The held digest is no field: equality and the worker's view
        # of the cell are unchanged.
        assert cell == tiny_cell(3)
        assert "_digest" not in cell.to_dict()

    def test_held_digest_equals_a_fresh_hash_for_every_locked_cell(self):
        lock = json.loads(test_cache_keys.GOLDEN.read_text())
        checked = 0
        for plan, lines in lock["plans"].items():
            target, scale, policy = plan.split("/")
            cells = plan_target(target, SCALES[scale], lock["seed"],
                                policy).cells
            assert len(cells) == len(lines), plan
            for cell, line in zip(cells, lines):
                held = cell.digest()
                fresh = hashlib.sha256(canonical_json(
                    dict(cell.to_dict(), version=__version__))
                    .encode("utf-8")).hexdigest()
                assert cell.digest() is held
                assert held == fresh == line.rsplit(" ", 1)[1], cell.name
                checked += 1
        assert checked == 672

    def test_config_fields_are_flattened_once_per_overrides(
            self, monkeypatch):
        built = []

        def counting_stock():
            built.append(1)
            return common.stock_config()

        monkeypatch.setitem(common.CONFIG_FACTORIES, "counting-stock",
                            counting_stock)
        try:
            first = kernel_config_fields("counting-stock", policy="victima",
                                         asid_enabled=False)
            first["asid_enabled"] = "changed by its caller"
            second = kernel_config_fields("counting-stock",
                                          asid_enabled=False,
                                          policy="victima")
        finally:
            _config_fields.cache_clear()  # Forget the patched factory.
        assert built == [1]
        assert second is not first
        assert second == dict(first, asid_enabled=False)
        assert second == dict(kernel_config_fields(
            "stock", asid_enabled=False, policy="victima"),
            name="counting-stock")

    def test_resolve_cell_fn(self):
        assert resolve_cell_fn("tests.test_orchestrate:echo_cell") is echo_cell
        with pytest.raises(ValueError):
            resolve_cell_fn("no-colon")
        with pytest.raises(ValueError):
            resolve_cell_fn("tests.test_orchestrate:missing")

    def test_execute_cell_canonicalises(self):
        payload = execute_cell(tiny_cell(5).to_dict())
        assert payload == {"value": 5, "doubled": 10}
        assert payload == canonicalize(payload)

    def test_jsonable_flattens(self):
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable({1: (2,)}) == {"1": [2]}
        flat = jsonable(TINY)
        assert flat["launch_rounds"] == 2 and flat["apps"] == [
            "Angrybirds", "Email"]

    def test_scale_round_trip(self):
        assert scale_from_params(scale_to_params(TINY)) == TINY
        assert scale_from_params(scale_to_params(QUICK)) == QUICK


class TestOrchestrator:
    def test_payloads_in_cell_order(self):
        cells = [tiny_cell(v) for v in (3, 1, 2)]
        payloads = Orchestrator().run(cells)
        assert [p["value"] for p in payloads] == [3, 1, 2]

    def test_rejects_bad_jobs(self, capsys):
        from repro.distrib import local_workers
        from repro.experiments import runner

        with pytest.raises(ValueError):
            with local_workers(0):
                pass
        with pytest.raises(SystemExit) as exited:
            runner.main(["table4", "--jobs", "0"])
        assert exited.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_open_executor_picks_by_jobs(self):
        from repro.distrib import LocalWorkers
        from repro.orchestrate import SerialExecutor, open_executor

        with open_executor(1) as executor:
            assert isinstance(executor, SerialExecutor)
        with open_executor(2) as executor:
            assert isinstance(executor, LocalWorkers)
            assert executor.count == 2

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first = Orchestrator(cache=cache)
        cells = [tiny_cell(v) for v in (1, 2)]
        cold = first.run(cells)
        assert first.telemetry.misses == 2
        second = Orchestrator(cache=cache)
        warm = second.run(cells)
        assert second.telemetry.hits == 2 and second.telemetry.misses == 0
        assert warm == cold

    def test_cache_artifact_is_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = tiny_cell(9)
        Orchestrator(cache=cache).run([cell])
        with open(cache.path(cell.digest())) as handle:
            record = json.load(handle)
        assert record["payload"]["doubled"] == 18
        assert record["cell"]["experiment"] == "echo"

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = tiny_cell(4)
        Orchestrator(cache=cache).run([cell])
        with open(cache.path(cell.digest()), "w") as handle:
            handle.write("not json{")
        orch = Orchestrator(cache=cache)
        assert orch.run([cell])[0]["doubled"] == 8
        assert orch.telemetry.misses == 1

    def test_unwritable_cache_warns_once_and_continues(self, tmp_path,
                                                       capsys):
        """A read-only cache root degrades to 'no cache': one stderr
        warning, no exception, results still computed."""
        # A plain file where the cache root should be defeats makedirs
        # even for root, unlike a chmod-based read-only directory.
        root = tmp_path / "ro"
        root.write_text("not a directory")
        cache = ResultCache(str(root))
        cells = [tiny_cell(v) for v in (1, 2)]
        payloads = Orchestrator(cache=cache).run(cells)
        assert [p["doubled"] for p in payloads] == [2, 4]
        err = capsys.readouterr().err
        assert err.count("not writable") == 1
        # Nothing was stored; a re-read still misses cleanly.
        assert cache.load(cells[0].digest()) is None

    def test_telemetry_summary_and_progress(self):
        lines = []
        telemetry = Telemetry(progress=lines.append)
        Orchestrator(telemetry=telemetry).run([tiny_cell(1), tiny_cell(2)])
        assert len(lines) == 2 and "[cell 1/2]" in lines[0]
        summary = telemetry.summary()
        assert "2 cells" in summary and "2 misses" in summary

    def test_telemetry_observer_sees_every_cell(self):
        observed = []
        telemetry = Telemetry(
            observer=lambda record, position, total:
                observed.append((record.name, record.cached,
                                 position, total)))
        Orchestrator(telemetry=telemetry).run([tiny_cell(1), tiny_cell(2)])
        assert observed == [("echo/v1", False, 1, 2),
                            ("echo/v2", False, 2, 2)]


class TestResultCacheCrashSafety:
    """Torn writes and stale temp files must degrade to cache misses."""

    def test_partial_artifact_is_ignored_and_overwritten(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = tiny_cell(6)
        Orchestrator(cache=cache).run([cell])
        artifact = cache.path(cell.digest())
        complete = open(artifact).read()
        # Simulate a crash mid-write landing a truncated document at
        # the final path (the pre-atomic-rename failure mode).
        with open(artifact, "w") as handle:
            handle.write(complete[:len(complete) // 2])
        assert cache.load(cell.digest()) is None
        orch = Orchestrator(cache=cache)
        assert orch.run([cell])[0]["doubled"] == 12
        assert orch.telemetry.misses == 1
        # The recompute overwrote the torn artifact with a whole one.
        assert cache.load(cell.digest())["payload"]["doubled"] == 12

    def test_leftover_tmp_file_is_harmless(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = tiny_cell(2)
        digest = cell.digest()
        shard = tmp_path / digest[:2]
        shard.mkdir()
        (shard / "deadbeef.tmp").write_text("{\"payload\": trunc")
        Orchestrator(cache=cache).run([cell])
        assert cache.load(digest)["payload"]["value"] == 2
        # The stale temp file is still there, still ignored.
        assert (shard / "deadbeef.tmp").exists()

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cells = [tiny_cell(v) for v in range(5)]
        Orchestrator(cache=cache).run(cells)
        leftovers = [name for _, _, names in os.walk(tmp_path)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []


class TestHeldRecords:
    """A cache holds the records it has read; its own writes and prunes
    drop them, so the files stay the truth."""

    def test_a_repeated_load_is_answered_from_memory(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = tiny_cell(3)
        Orchestrator(cache=cache).run([cell])
        record = cache.load(cell.digest())
        os.unlink(cache.path(cell.digest()))
        assert cache.load(cell.digest()) is record
        assert ResultCache(str(tmp_path)).load(cell.digest()) is None

    def test_store_holds_nothing_and_drops_the_held_copy(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cell = tiny_cell(3)
        digest = cell.digest()
        cache.store(digest, cell.to_dict(), {"value": 1}, 0.0)
        assert len(cache._held) == 0
        assert cache.load(digest)["payload"] == {"value": 1}
        assert len(cache._held) == 1
        cache.store(digest, cell.to_dict(), {"value": 2}, 0.0)
        assert len(cache._held) == 0
        assert cache.load(digest)["payload"] == {"value": 2}

    def test_prune_empties_the_held_records(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cells = [tiny_cell(v) for v in range(3)]
        Orchestrator(cache=cache).run(cells)
        assert all(cache.load(cell.digest()) for cell in cells)
        cache.prune(max_bytes=0)
        assert len(cache._held) == 0
        assert [cache.load(cell.digest()) for cell in cells] == [None] * 3

    def test_the_oldest_record_goes_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "RECORDS_HELD", 2)
        cache = ResultCache(str(tmp_path))
        cells = [tiny_cell(v) for v in range(3)]
        Orchestrator(cache=cache).run(cells)
        records = [cache.load(cell.digest()) for cell in cells]
        for cell in cells:
            os.unlink(cache.path(cell.digest()))
        assert cache.load(cells[0].digest()) is None
        assert cache.load(cells[1].digest()) is records[1]
        assert cache.load(cells[2].digest()) is records[2]

    def test_bounded_memo_drops_the_oldest_put(self):
        memo = BoundedMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 3)  # A new value keeps the key's age.
        memo.put("c", 4)
        assert (memo.get("a"), memo.get("b"), memo.get("c")) == (None, 2, 4)
        memo.pop("b")
        memo.pop("missing")
        assert len(memo) == 1
        memo.clear()
        assert len(memo) == 0

    def test_threads_sharing_a_tiny_cache_get_their_own_records(
            self, tmp_path, monkeypatch):
        """``satr serve``'s workers share one cache: with room for 3 of
        8 records, loads, evictions and disk reads interleave."""
        monkeypatch.setattr(cache_module, "RECORDS_HELD", 3)
        cache = ResultCache(str(tmp_path))
        cells = [tiny_cell(v) for v in range(8)]
        Orchestrator(cache=cache).run(cells)
        wrong = []

        def worker(offset: int) -> None:
            for index in range(1000):
                cell = cells[(offset + index) % len(cells)]
                record = cache.load(cell.digest())
                if record is None or record["payload"] != echo_cell(
                        cell.params):
                    wrong.append(cell.name)
                if len(cache._held) > 3:
                    wrong.append("over the bound")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestExperimentCells:
    """Cell decompositions of the refactored experiment drivers."""

    def test_cell_lists_shapes(self):
        assert len(launch.launch_cells(TINY)) == 4
        assert len(fork.table4_cells(TINY)) == 3
        assert len(fork.table3_cells(TINY)) == 1
        assert len(steady.steady_cells(TINY)) == 4
        assert len(ipc.ipc_cells(TINY)) == 6

    def test_config_fields_in_digest_inputs(self):
        for cell in launch.launch_cells(TINY):
            assert "fork_policy" in cell.config_fields
        asid_cells = {cell.cell_id: cell.config_fields["asid_enabled"]
                      for cell in ipc.ipc_cells(TINY)}
        assert asid_cells["asid-stock"] is True
        assert asid_cells["no-asid-stock"] is False

    def test_kernel_config_change_invalidates_cache(self, tmp_path):
        """A KernelConfig field flip must miss a warm cache."""
        cache = ResultCache(str(tmp_path))
        base = fork.table4_cells(TINY)[0]
        Orchestrator(cache=cache).run([base])
        changed = Cell(
            experiment=base.experiment, cell_id=base.cell_id, fn=base.fn,
            params=base.params,
            config_fields=kernel_config_fields(
                "shared-ptp", x86_style_l1_write_protect=True),
        )
        assert cache.load(base.digest()) is not None
        assert cache.load(changed.digest()) is None

    def test_cached_payload_reproduces_identical_bytes(self, tmp_path):
        """A cache hit must render the exact bytes of the cold run."""
        cache = ResultCache(str(tmp_path))
        cold = fork.table4(TINY, orchestrator=Orchestrator(cache=cache))
        warm_orch = Orchestrator(cache=cache)
        warm = fork.table4(TINY, orchestrator=warm_orch)
        assert warm_orch.telemetry.hits == 3
        assert warm.render() == cold.render()

    def test_ipc_merge_order_independent(self):
        """Merging a permuted payload list yields the same report."""
        cells = ipc.ipc_cells(TINY)
        payloads = Orchestrator().run(cells)
        assert (ipc.merge_ipc(payloads).render()
                == ipc.merge_ipc(payloads).render())
        reversed_result = ipc.merge_ipc(list(reversed(payloads)))
        assert reversed_result.render() == ipc.merge_ipc(payloads).render()


@pytest.mark.slow
class TestSerialParallelEquality:
    """The determinism bar: --jobs N output == --jobs 1 output."""

    def test_table4_quick_scale(self, tmp_path, warm_workers):
        serial = run_target("table4", QUICK, RunContext(Orchestrator()))
        parallel = run_target(
            "table4", QUICK,
            RunContext(Orchestrator(executor=warm_workers,
                                    cache=ResultCache(str(tmp_path)))))
        assert parallel == serial
        # ... and a warm-cache replay still matches, byte for byte.
        replay = run_target(
            "table4", QUICK,
            RunContext(Orchestrator(cache=ResultCache(str(tmp_path)))))
        assert replay == serial

    def test_launch_quick_scale(self, warm_workers):
        serial = run_target("launch", QUICK, RunContext(Orchestrator()))
        parallel = run_target("launch", QUICK,
                              RunContext(Orchestrator(executor=warm_workers)))
        assert parallel == serial


class TestRunnerPlanning:
    def test_plan_target_unknown(self):
        with pytest.raises(SystemExit):
            plan_target("nope", TINY)

    def test_every_target_has_a_plan(self):
        from repro.experiments.runner import ALL_GROUPS, TARGETS

        for target in TARGETS:
            plan = plan_target(target, TINY)
            assert plan.cells, target
            assert callable(plan.render)
        assert set(ALL_GROUPS) <= set(TARGETS)

    def test_fork_group_merges_both_tables(self):
        report = run_target("fork", TINY)
        assert "Table 4" in report and "Table 3" in report

    def test_seed_changes_results(self):
        """--seed reaches build_runtime: a reseeded boot changes launches."""
        base = launch.run_launch_experiment(TINY, seed=7)
        reseeded = launch.run_launch_experiment(TINY, seed=1234)
        assert (base.baseline.median_cycles
                != reseeded.baseline.median_cycles)


class TestCountersFieldIteration:
    """The vars()->fields() satellite: deltas stay honest."""

    def test_snapshot_is_independent(self):
        counters = Counters(soft_faults=3)
        counters.record_unshare("write")
        snap = counters.snapshot()
        counters.soft_faults += 1
        counters.record_unshare("write")
        assert snap.soft_faults == 3
        assert snap.unshare_by_trigger == {"write": 1}

    def test_delta_since_covers_dict_fields(self):
        counters = Counters()
        counters.record_unshare("write")
        snap = counters.snapshot()
        counters.record_unshare("write")
        counters.record_unshare("munmap")
        delta = counters.delta_since(snap)
        assert delta.ptp_unshare_events == 2
        assert delta.unshare_by_trigger == {"write": 1, "munmap": 1}

    def test_non_numeric_field_fails_loudly(self):
        counters = Counters()
        counters.soft_faults = "oops"
        with pytest.raises(TypeError):
            counters.snapshot()
        with pytest.raises(TypeError):
            counters.delta_since(Counters())


def worker_killing_cell(params):
    """Kill every worker that runs it; an echo in the ``host`` process."""
    if os.getpid() != params["host"]:
        os._exit(17)
    return echo_cell(params)


def killing_cell(value: int) -> Cell:
    """A cell no worker survives, which runs fine in this process."""
    return Cell(experiment="echo", cell_id=f"k{value}",
                fn="tests.test_orchestrate:worker_killing_cell",
                params={"value": value, "host": os.getpid()})


class TestExecutorFallback:
    """The fallback ladder: dying or silent workers degrade to
    in-process execution, announced, and never change the bytes."""

    def test_partial_failure_matches_serial_bytes(self):
        """Workers that die on some cells (twice each) must still yield
        the same ordered byte-identical payload list as serial."""
        from repro.distrib import local_workers
        from repro.orchestrate import canonical_json
        from repro.orchestrate.executor import run_serial

        cells = [tiny_cell(5), killing_cell(1), tiny_cell(4),
                 killing_cell(2), tiny_cell(3)]
        items = [(i, c.to_dict()) for i, c in enumerate(cells)]
        serial = run_serial(items)

        fallbacks = []
        with local_workers(2) as executor:
            broken = sorted(executor.run_iter(
                items, on_fallback=fallbacks.append),
                key=lambda run: run[0])
        assert [run[0] for run in broken] == [run[0] for run in serial]
        assert ([canonical_json(run[1]) for run in broken]
                == [canonical_json(run[1]) for run in serial])
        assert len(fallbacks) == 2
        assert all("twice" in reason for reason in fallbacks)

    def test_orchestrator_records_fallback_in_telemetry(self):
        """Pool degradation lands in Telemetry.fallbacks and the
        summary line, not in a bare RuntimeWarning."""
        from repro.distrib import local_workers

        lines = []
        telemetry = Telemetry(progress=lines.append)
        cells = [tiny_cell(0), killing_cell(1), tiny_cell(2), tiny_cell(3)]
        with local_workers(2) as executor:
            orch = Orchestrator(telemetry=telemetry, executor=executor)
            payloads = orch.run(cells)
        assert [p["value"] for p in payloads] == [0, 1, 2, 3]
        assert len(telemetry.fallbacks) == 1
        assert "cell 1" in telemetry.fallbacks[0]
        assert any("[executor] fallback:" in line for line in lines)
        assert "1 executor fallback" in telemetry.summary()

    def test_no_hook_still_warns(self, monkeypatch):
        """Without a hook a degradation is a RuntimeWarning, not silent."""
        import sys
        import warnings

        from repro.distrib import local, local_workers

        monkeypatch.setattr(local, "worker_command",
                            lambda: [sys.executable, "-c", "pass"])
        items = [(i, tiny_cell(i).to_dict()) for i in range(3)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with local_workers(2) as executor:
                runs = list(executor.run_iter(items))
        assert [run[1]["value"] for run in runs] == [0, 1, 2]
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)
                and "unavailable" in str(w.message)]

    def test_silent_workers_fall_back_to_serial(self, tmp_path,
                                                monkeypatch):
        """Local workers that never say hello: every batch goes serial,
        announced once, and nothing is left behind."""
        import sys
        import tempfile

        from repro.distrib import local, local_workers

        monkeypatch.setattr(local, "worker_command",
                            lambda: [sys.executable, "-c", "pass"])
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        telemetry = Telemetry()
        with local_workers(2) as executor:
            orchestrator = Orchestrator(telemetry=telemetry,
                                        executor=executor)
            payloads = orchestrator.run([tiny_cell(v) for v in range(3)])
            assert orchestrator.run([tiny_cell(7)]) == [
                {"value": 7, "doubled": 14}]
        assert [p["value"] for p in payloads] == [0, 1, 2]
        assert len(telemetry.fallbacks) == 1
        assert "local workers unavailable" in telemetry.fallbacks[0]
        assert os.listdir(tmp_path) == []


class _FakeExecutor:
    """An executor whose stream is scripted: ``(index, payload)`` pairs."""

    def __init__(self, script):
        self.script = script

    def run_iter(self, items, on_fallback=None):
        for index, payload in self.script:
            yield index, payload, 0.0


class TestRunAsCellsLand:
    """``run`` stores and reports each cell the moment it lands."""

    def test_cells_before_a_raising_cell_are_kept(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        lines = []
        cells = [tiny_cell(0), tiny_cell(1),
                 Cell(experiment="fail", cell_id="v2",
                      fn="tests.test_orchestrate:failing_cell",
                      params={"value": 2}),
                 tiny_cell(3)]
        orchestrator = Orchestrator(cache=cache,
                                    telemetry=Telemetry(
                                        progress=lines.append))
        with pytest.raises(RuntimeError, match="deliberate failure for 2"):
            orchestrator.run(cells)
        assert [cache.load(cell.digest()) is not None
                for cell in cells] == [True, True, False, False]
        assert [line.split(":")[0] for line in lines] == [
            "[cell 1/4] echo/v0", "[cell 2/4] echo/v1"]

    def test_rendered_target_counts_its_wall_time(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setitem(runner.RENDERED_DRIVERS, "table1",
                            lambda scale, seed: "a cheap report")
        telemetry = Telemetry()
        report = run_target("table1", TINY,
                            RunContext(Orchestrator(telemetry=telemetry)))
        assert report == "a cheap report"
        assert telemetry.wall_seconds > 0

    def test_completion_order_returns_plan_order(self):
        orchestrator = Orchestrator(executor=_FakeExecutor(
            [(2, "c"), (0, "a"), (1, "b")]))
        assert orchestrator.run([tiny_cell(v) for v in range(3)]) == [
            "a", "b", "c"]

    @pytest.mark.parametrize("script, message", [
        ([(0, "a")], "ended with 1 of 2 cells unanswered"),
        ([(0, "a"), (0, "a")], "cell index 0, which is not an unanswered"),
        ([(0, "a"), (7, "x")], "cell index 7, which is not an unanswered"),
    ], ids=["ends-early", "repeats", "unknown"])
    def test_a_broken_stream_raises(self, script, message):
        orchestrator = Orchestrator(executor=_FakeExecutor(script))
        with pytest.raises(ValueError, match=message):
            orchestrator.run([tiny_cell(0), tiny_cell(1)])


class TestCacheStatsPrune:
    """satr cache: stats totals and the age/size eviction order."""

    def _fill(self, tmp_path, count):
        cache = ResultCache(str(tmp_path))
        cells = [tiny_cell(v) for v in range(count)]
        Orchestrator(cache=cache).run(cells)
        return cache, cells

    def test_stats_counts_artifacts(self, tmp_path):
        cache, _ = self._fill(tmp_path, 4)
        stats = cache.stats()
        assert stats["artifacts"] == 4
        assert stats["bytes"] > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]

    def test_prune_by_age(self, tmp_path):
        cache, cells = self._fill(tmp_path, 3)
        old = cache.path(cells[0].digest())
        past = time.time() - 3600
        os.utime(old, (past, past))
        result = cache.prune(max_age_seconds=600)
        assert result["removed"] == 1 and result["removed_bytes"] > 0
        assert cache.load(cells[0].digest()) is None
        assert cache.load(cells[1].digest()) is not None

    def test_prune_by_bytes_evicts_oldest_first(self, tmp_path):
        cache, cells = self._fill(tmp_path, 3)
        now = time.time()
        for age, cell in zip((300, 200, 100), cells):
            path = cache.path(cell.digest())
            os.utime(path, (now - age, now - age))
        one_size = os.path.getsize(cache.path(cells[2].digest()))
        cache.prune(max_bytes=one_size)
        assert cache.load(cells[0].digest()) is None  # Oldest went first.
        assert cache.load(cells[1].digest()) is None
        assert cache.load(cells[2].digest()) is not None

    def test_prune_empties_shard_dirs(self, tmp_path):
        cache, cells = self._fill(tmp_path, 2)
        cache.prune(max_bytes=0)
        assert cache.stats()["artifacts"] == 0
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if len(name) == 2]
        assert leftovers == []

    def test_prune_no_bounds_removes_nothing(self, tmp_path):
        cache, _ = self._fill(tmp_path, 2)
        assert cache.prune() == {"removed": 0, "removed_bytes": 0}
        assert cache.stats()["artifacts"] == 2


class TestSweepManifest:
    """satr sweep: the JSONL manifest and --since digest reuse."""

    def _sweep(self, tmp_path, name, cells, since=None):
        from repro.experiments import sweep

        path = str(tmp_path / name)
        result = sweep.run_sweep(
            "echo", cells, Orchestrator(), path,
            scale_name="tiny", seed=7, since=since)
        return path, result

    def test_manifest_round_trip(self, tmp_path):
        from repro.experiments import sweep

        cells = [tiny_cell(v) for v in (1, 2, 3)]
        path, result = self._sweep(tmp_path, "a.jsonl", cells)
        assert result.total == 3 and result.executed == 3
        assert result.reused == 0
        index = sweep.ManifestIndex(path)
        assert index.digests == [c.digest() for c in cells]
        payloads = list(index.payloads())
        assert [p["value"] for p in payloads] == [1, 2, 3]
        assert payloads == Orchestrator().run(cells)

    def test_since_reuses_unchanged_cells(self, tmp_path):
        cells = [tiny_cell(v) for v in (1, 2, 3)]
        old_path, _ = self._sweep(tmp_path, "old.jsonl", cells)
        # One cell's params change; the other two digests are stable.
        changed = [tiny_cell(1), tiny_cell(99), tiny_cell(3)]
        new_path, result = self._sweep(tmp_path, "new.jsonl", changed,
                                       since=old_path)
        assert result.executed == 1 and result.reused == 2
        from repro.experiments import sweep

        payloads = sweep.load_manifest_payloads(new_path)
        assert [p["value"] for p in payloads] == [1, 99, 3]
        # Byte-identity: reused lines equal a from-scratch manifest's.
        scratch, _ = self._sweep(tmp_path, "scratch.jsonl", changed)
        assert (open(new_path, "rb").read()
                == open(scratch, "rb").read())

    def test_since_output_path_overlap_is_safe(self, tmp_path):
        cells = [tiny_cell(v) for v in (4, 5)]
        path, _ = self._sweep(tmp_path, "self.jsonl", cells)
        before = open(path, "rb").read()
        path2, result = self._sweep(tmp_path, "self.jsonl", cells,
                                    since=path)
        assert result.executed == 0 and result.reused == 2
        assert open(path2, "rb").read() == before

    def test_truncated_manifest_is_rejected(self, tmp_path):
        from repro.experiments import sweep

        cells = [tiny_cell(v) for v in (1, 2)]
        path, _ = self._sweep(tmp_path, "trunc.jsonl", cells)
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.writelines(lines[:-1])  # Drop the last payload.
        with pytest.raises(sweep.ManifestError, match="truncated"):
            sweep.ManifestIndex(path)

    def test_non_manifest_file_is_rejected(self, tmp_path):
        from repro.experiments import sweep

        path = tmp_path / "not.jsonl"
        path.write_text('{"kind":"something-else"}\n')
        with pytest.raises(sweep.ManifestError, match="not a satr-sweep"):
            sweep.ManifestIndex(str(path))
