"""The translation-policy subsystem: registry, hooks, the three
concrete policies, digest sensitivity and the ``satr compare`` matrix.

The load-bearing guarantees:

* the policy name is a real config field — unknown names are rejected
  at kernel construction, and two cells differing only in policy can
  never share a cache digest, while adding the field left every
  baseline digest untouched (pinned by a golden digest);
* victima's victim store obeys TLB maintenance parity and its
  park/revive ledger balances (the invariant checker enforces both);
* replicated-pt redirects remote-node walks and counts write-coherence
  traffic on every PTE-update path;
* ``satr compare`` produces byte-identical matrices serially, on warm
  workers, and out of a warm cache.
"""

from types import SimpleNamespace

import pytest

from repro.check import InvariantViolation, verify_kernel
from repro.common.constants import DOMAIN_KERNEL, PAGE_SIZE
from repro.common.errors import ConfigError
from repro.experiments import compare, fork
from repro.experiments.checking import check_cells, run_check
from repro.experiments.common import QUICK, build_runtime
from repro.experiments.observed import OBSERVED_CONFIGS
from repro.hw.tlb import TlbEntry
from repro.kernel.config import shared_ptp_tlb_config
from repro.kernel.kernel import Kernel
from repro.metrics import Sampler
from repro.orchestrate import Orchestrator, ResultCache, kernel_config_fields
from repro.policy import (
    NULL_POLICY,
    TranslationPolicy,
    make_policy,
    policy_class,
    policy_names,
    register_policy,
    unregister_policy,
)
from repro.policy.replicated import NUM_NODES, REPLICA_STRIDE

#: table4/shared-ptp at quick scale, seed 7, version 1.3.0 — the exact
#: digest this cell had before the ``policy`` config field existed.
#: If this changes, every user's cached baseline results are orphaned.
GOLDEN_BASELINE_DIGEST = (
    "69109c14853d201b6e4f907a7fa859aa0b7605fb1a730d7a88940ca35582f4f4"
)


def _kernel(policy: str) -> Kernel:
    return Kernel(config=shared_ptp_tlb_config().with_(policy=policy))


def _entry(vpn, asid=5, pfn=777, writable=False, global_=False,
           domain=1, span_pages=1) -> TlbEntry:
    return TlbEntry(vpn=vpn, asid=asid, pfn=pfn, writable=writable,
                    global_=global_, domain=domain,
                    span_pages=span_pages)


# ---------------------------------------------------------------------------
# Registry + config plumbing.
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtin_policies_registered(self):
        names = policy_names()
        for name in ("baseline", "victima", "replicated-pt",
                     "nodomain-flush"):
            assert name in names

    def test_unknown_policy_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown translation policy"):
            policy_class("nope")
        with pytest.raises(ConfigError):
            Kernel(config=shared_ptp_tlb_config().with_(policy="nope"))

    def test_register_and_unregister(self):
        class FakePolicy(TranslationPolicy):
            name = "fake-for-test"
            active = True

        register_policy(FakePolicy)
        try:
            assert "fake-for-test" in policy_names()
            assert policy_class("fake-for-test") is FakePolicy
            kernel = _kernel("fake-for-test")
            assert isinstance(kernel.policy, FakePolicy)
        finally:
            unregister_policy("fake-for-test")
        assert "fake-for-test" not in policy_names()

    def test_baseline_is_inert_with_nonempty_counters(self):
        kernel = Kernel()
        assert kernel.config.policy == "baseline"
        assert not kernel.policy.active
        assert kernel.policy.event_counts() == {"none": 0}
        assert not NULL_POLICY.active

    def test_implied_config_applied_at_construction(self):
        kernel = _kernel("nodomain-flush")
        assert kernel.config.domain_support is False
        assert kernel.policy.active

    def test_make_policy_binds_kernel(self):
        kernel = Kernel()
        policy = make_policy("victima", kernel)
        assert policy.kernel is kernel and policy.name == "victima"


# ---------------------------------------------------------------------------
# Victima: park / revive / stale / maintenance parity.
# ---------------------------------------------------------------------------

class TestVictima:
    def test_evicted_entry_is_parked_and_revived(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        entry = _entry(vpn=0x123)
        policy.on_tlb_evict(core, entry)
        assert policy.counters["parked"] == 1
        revived, stall = policy.tlb_miss_probe(
            core, SimpleNamespace(asid=5), 0x123)
        assert revived is entry
        assert stall == core.caches.cost.l2_hit_stall
        assert policy.counters["revived"] == 1
        # Revival reinserts into the main TLB.
        assert entry in core.main_tlb.entries()
        assert policy.parked_entries() == []

    def test_wrong_asid_does_not_revive_non_global(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        policy.on_tlb_evict(core, _entry(vpn=0x123, asid=5))
        assert policy.tlb_miss_probe(
            core, SimpleNamespace(asid=6), 0x123) == (None, 0)
        assert policy.counters["revived"] == 0
        assert len(policy.parked_entries()) == 1

    def test_global_entry_revives_across_asids(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        entry = _entry(vpn=0x200, asid=5, global_=True)
        policy.on_tlb_evict(core, entry)
        revived, _ = policy.tlb_miss_probe(
            core, SimpleNamespace(asid=99), 0x200)
        assert revived is entry

    def test_large_span_probe_aliasing(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        entry = _entry(vpn=0x340, span_pages=16)
        policy.on_tlb_evict(core, entry)
        revived, _ = policy.tlb_miss_probe(
            core, SimpleNamespace(asid=5), 0x347)
        assert revived is entry

    def test_l2_eviction_makes_parked_entry_stale(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        l2 = kernel.platform.shared_l2
        entry = _entry(vpn=0x123)
        policy.on_tlb_evict(core, entry)
        line = policy._line_paddr(entry) >> l2.line_shift
        # Fill the parked line's set with conflicting lines until the
        # synthetic line is evicted: the translation went with it.
        for k in range(1, l2.ways + 1):
            l2.access((line + k * l2.num_sets) << l2.line_shift)
        assert not l2.contains(policy._line_paddr(entry))
        assert policy.tlb_miss_probe(
            core, SimpleNamespace(asid=5), 0x123) == (None, 0)
        assert policy.counters["stale"] == 1
        assert policy.counters["revived"] == 0

    def test_flush_parity_with_main_tlb(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        non_global = _entry(vpn=0x1, asid=5)
        global_ = _entry(vpn=0x2, asid=5, global_=True)
        other_asid = _entry(vpn=0x3, asid=6)
        for entry in (non_global, global_, other_asid):
            policy.on_tlb_evict(core, entry)

        policy.on_tlb_flush("asid", asid=6)
        assert other_asid not in policy.parked_entries()
        policy.on_tlb_flush("non-global")
        assert policy.parked_entries() == [global_]
        policy.on_tlb_flush("all")
        assert policy.parked_entries() == []
        assert policy.counters["flushed"] == 3

    def test_va_flush_covers_large_spans(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        policy.on_tlb_evict(core, _entry(vpn=0x340, span_pages=16))
        policy.on_tlb_flush("va", vpn=0x34f)
        assert policy.parked_entries() == []

    def test_ledger_invariant_catches_tampering(self):
        kernel = _kernel("victima")
        policy = kernel.policy
        assert list(policy.check_invariants()) == []
        policy.counters["parked"] += 5
        problems = list(policy.check_invariants())
        assert problems and "accounting" in problems[0]


# ---------------------------------------------------------------------------
# Replicated page tables: walk redirection + write coherence.
# ---------------------------------------------------------------------------

class TestReplicatedPt:
    def test_remote_node_walks_are_redirected(self):
        kernel = _kernel("replicated-pt")
        policy = kernel.policy
        core = kernel.platform.cores[0]
        local = SimpleNamespace(asid=2)   # node 0
        remote = SimpleNamespace(asid=3)  # node 1
        assert policy.pte_walk_paddr(core, local, None, 0, 0x1000) == 0x1000
        assert policy.pte_walk_paddr(core, remote, None, 0, 0x1000) == (
            0x1000 + REPLICA_STRIDE)
        assert policy.counters["replica-walk"] == 1

    def test_every_pte_update_path_counts_coherence(self):
        kernel = _kernel("replicated-pt")
        policy = kernel.policy
        step = NUM_NODES - 1
        policy.on_pte_write(None, 0)
        assert policy.counters["replica-sync"] == step
        policy.on_ptp_share(None, protected=10)
        assert policy.counters["replica-sync"] == step * 11
        policy.on_ptp_unshare(None, "mprotect", copied=4)
        assert policy.counters["replica-sync"] == step * 15
        assert list(policy.check_invariants()) == []

    def test_replica_bytes_counts_distinct_frames(self):
        runtime = build_runtime("shared-ptp-tlb", policy="replicated-pt")
        policy = runtime.kernel.policy
        frames = {
            slot.ptp.frame.pfn
            for task in runtime.kernel.live_tasks()
            for _, slot in task.mm.tables.populated_slots()
        }
        expected = (NUM_NODES - 1) * len(frames) * PAGE_SIZE
        assert policy.replica_bytes() == expected
        assert policy.gauges()["replica-bytes"] == expected


# ---------------------------------------------------------------------------
# Kernel wiring: policies observe a real booted workload.
# ---------------------------------------------------------------------------

class TestKernelWiring:
    def test_victima_observes_boot_traffic(self):
        runtime = build_runtime("shared-ptp-tlb", policy="victima")
        policy = runtime.kernel.policy
        assert policy.counters["parked"] > 0
        assert list(policy.check_invariants()) == []

    def test_replicated_observes_boot_traffic(self):
        runtime = build_runtime("shared-ptp-tlb", policy="replicated-pt")
        counters = runtime.kernel.policy.counters
        assert counters["replica-walk"] > 0
        assert counters["replica-sync"] > 0

    def test_metrics_sampler_exposes_policy_events(self):
        sampler = Sampler(every_events=0)
        runtime = build_runtime("shared-ptp-tlb", observers=(sampler,),
                                policy="victima")
        sampler.finalize(runtime.kernel)
        series = sampler.final_values()["satr_policy_events_total"]
        assert series["parked"] > 0
        assert set(series) == set(runtime.kernel.policy.counters)

    def test_baseline_metrics_have_a_policy_sample(self):
        sampler = Sampler(every_events=0)
        runtime = build_runtime("shared-ptp", observers=(sampler,))
        sampler.finalize(runtime.kernel)
        assert sampler.final_values()["satr_policy_events_total"] == {
            "none": 0}


# ---------------------------------------------------------------------------
# Invariant checker integration.
# ---------------------------------------------------------------------------

class TestCheckerIntegration:
    def test_tampered_ledger_fails_verify_kernel(self):
        kernel = _kernel("victima")
        verify_kernel(kernel)
        kernel.policy.counters["parked"] += 1
        with pytest.raises(InvariantViolation, match="victim-store"):
            verify_kernel(kernel)

    def test_bogus_shadow_entry_fails_verify_kernel(self):
        kernel = _kernel("victima")
        core = kernel.platform.cores[0]
        # A kernel-domain shadow entry that breaks the linear map is
        # exactly the corruption TLB coherence would catch in a TLB.
        kernel.policy.on_tlb_evict(
            core, _entry(vpn=0x10, pfn=0xdead, domain=DOMAIN_KERNEL,
                         global_=True))
        with pytest.raises(InvariantViolation, match="linear map"):
            verify_kernel(kernel)

    def test_check_cells_thread_policy_to_sharing_cell_only(self):
        cells = check_cells("fork", QUICK, policy="victima")
        sharing, stock = cells
        assert sharing.params["policy"] == "victima"
        assert sharing.cell_id.endswith("@victima")
        assert "policy" not in stock.params
        baseline_cells = check_cells("fork", QUICK)
        assert baseline_cells[0].cell_id == sharing.cell_id.replace(
            "@victima", "")

    @pytest.mark.slow
    @pytest.mark.parametrize("policy", ["victima", "replicated-pt",
                                        "nodomain-flush"])
    def test_check_runs_clean_under_policy(self, policy, tmp_path):
        orchestrator = Orchestrator(
            cache=ResultCache(str(tmp_path / "cache")))
        result = run_check("fork", QUICK, orchestrator=orchestrator,
                           policy=policy)
        assert result.ok, result.render()


# ---------------------------------------------------------------------------
# Cache-digest sensitivity.
# ---------------------------------------------------------------------------

class TestDigestSensitivity:
    def test_policy_enters_the_digest(self):
        baseline = fork.table4_cells(QUICK, 7)
        victima = fork.table4_cells(QUICK, 7, policy="victima")
        for base_cell, policy_cell in zip(baseline, victima):
            assert base_cell.digest() != policy_cell.digest()

    def test_baseline_digest_matches_pre_policy_golden(self):
        cell = fork.table4_cells(QUICK, 7)[0]
        assert cell.name == "table4/shared-ptp"
        assert cell.digest() == GOLDEN_BASELINE_DIGEST

    def test_config_fields_omit_default_policy(self):
        assert "policy" not in kernel_config_fields("shared-ptp")
        fields = kernel_config_fields("shared-ptp", policy="victima")
        assert fields["policy"] == "victima"

    def test_distinct_policies_key_distinct_compare_cells(self):
        cells = compare.compare_cells(["fork"], list(policy_names()),
                                      QUICK, 7)
        digests = {cell.digest() for cell in cells}
        assert len(digests) == len(cells)


# ---------------------------------------------------------------------------
# The satr compare matrix.
# ---------------------------------------------------------------------------

class TestCompare:
    def test_plan_shape_and_params(self):
        cells = compare.compare_cells(["fork", "launch"],
                                      ["baseline", "victima"], QUICK, 7)
        assert [c.name for c in cells] == [
            "compare-fork/baseline", "compare-fork/victima",
            "compare-launch/baseline", "compare-launch/victima",
        ]
        for cell in cells:
            assert cell.params["policy"] in ("baseline", "victima")
            assert cell.params["config"] == OBSERVED_CONFIGS[
                cell.params["target"]][0]

    def test_unknown_axes_fail_before_planning(self):
        with pytest.raises(KeyError, match="unknown compare target"):
            compare.compare_cells(["nope"], ["baseline"], QUICK, 7)
        with pytest.raises(ConfigError, match="unknown translation"):
            compare.compare_cells(["fork"], ["nope"], QUICK, 7)

    @pytest.mark.slow
    def test_matrix_ranked_and_policies_disagree(self, tmp_path):
        orchestrator = Orchestrator(
            cache=ResultCache(str(tmp_path / "cache")))
        result = compare.run_compare(
            ["fork"], ["baseline", "replicated-pt"], QUICK,
            orchestrator=orchestrator)
        assert result.ok
        ranked = result.rows_for("fork")
        walks = [row["gauges"]["walk_cycles"] for row in ranked]
        assert walks == sorted(walks)
        # Replication pays real costs the baseline does not.
        assert "pagetable_bytes" in result.disagreements("fork")
        rendered = result.render()
        assert "ranked by walk cycles" in rendered
        assert "replicated-pt" in rendered

    @pytest.mark.slow
    def test_serial_pool_and_cache_byte_identical(self, tmp_path,
                                                  warm_workers):
        serial = compare.run_compare(
            ["fork"], ["baseline", "victima"], QUICK,
            orchestrator=Orchestrator(
                cache=ResultCache(str(tmp_path / "a"))))
        pooled = compare.run_compare(
            ["fork"], ["baseline", "victima"], QUICK,
            orchestrator=Orchestrator(
                executor=warm_workers,
                cache=ResultCache(str(tmp_path / "b"))))
        assert serial.to_json() == pooled.to_json()
        assert serial.render() == pooled.render()
        # Warm replay out of the serial run's cache: all hits, same bytes.
        from repro.orchestrate import Telemetry

        telemetry = Telemetry()
        replayed = compare.run_compare(
            ["fork"], ["baseline", "victima"], QUICK,
            orchestrator=Orchestrator(
                cache=ResultCache(str(tmp_path / "a")),
                telemetry=telemetry))
        assert telemetry.hits == 2 and telemetry.misses == 0
        assert replayed.to_json() == serial.to_json()
