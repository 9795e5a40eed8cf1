"""Ablations of the paper's design choices (Sections 3.1.3 and 3.2.3).

1. **Referenced-only PTE copy on unshare** — the paper copies *all*
   valid PTEs when unsharing and notes that copying only referenced
   ones could reduce the cost; we implement both and measure the copy
   savings against the extra soft faults.
2. **x86-style level-1 write protection** — ARM lacks a level-1
   write-protect bit, so the first share must write-protect every
   level-2 PTE; with the x86-style bit the pass disappears.  We
   measure the first fork after boot under both models.
3. **Domainless TLB sharing** — without ARM's domain model the
   fallback flushes global entries when switching from a zygote-like
   to a non-zygote process (Section 3.2.3); we compare binder IPC
   stalls with and without domain support.
4. **64KB large pages** — Section 2.3.3's trade-off, measured: large
   pages buy TLB reach with physical memory, and they compose with
   shared PTPs.
5. **PTE cache pollution** — the paper's Figure 1: private page tables
   fill the shared L2 with duplicated PTE lines; shared PTPs collapse
   them to one copy.
6. **Sharer scalability** — the paper's motivating observation:
   translation memory for shared regions grows linearly with process
   count under private tables, but stays constant with shared PTPs.
"""

from dataclasses import dataclass
from typing import List

from repro.common.rng import DeterministicRng
from repro.hw.memory import FrameKind
from repro.android.binder import BinderBenchmark, BinderConfig
from repro.android.zygote import boot_android
from repro.kernel.config import shared_ptp_config, shared_ptp_tlb_config
from repro.kernel.kernel import Kernel
from repro.experiments.common import (
    DEFAULT,
    DEFAULT_SEED,
    Scale,
    build_runtime,
    format_table,
)
from repro.workloads.profiles import APP_PROFILES
from repro.workloads.session import launch_app


# ---------------------------------------------------------------------------
# 1. Referenced-only copy on unshare.
# ---------------------------------------------------------------------------

@dataclass
class UnshareCopyResult:
    """Measured copy-all vs referenced-only outcomes."""
    app: str
    copy_all_ptes: float
    copy_all_faults: float
    referenced_only_ptes: float
    referenced_only_faults: float

    @property
    def copy_savings(self) -> float:
        """Fractional reduction in PTEs copied."""
        return 1.0 - self.referenced_only_ptes / max(1.0, self.copy_all_ptes)

    def render(self) -> str:
        """Plain-text rendering: the rows/series the paper reports."""
        return format_table(
            ["Policy", "PTEs copied on unshare", "File faults"],
            [
                ["copy all (paper)", f"{self.copy_all_ptes:.0f}",
                 f"{self.copy_all_faults:.0f}"],
                ["referenced only", f"{self.referenced_only_ptes:.0f}",
                 f"{self.referenced_only_faults:.0f}"],
            ],
            title=(f"Ablation: PTE copy policy on unshare ({self.app}) — "
                   f"referenced-only copies "
                   f"{100 * self.copy_savings:.0f}% fewer PTEs"),
        )


def unshare_copy_ablation(scale: Scale = DEFAULT,
                          app: str = "Angrybirds",
                          seed: int = DEFAULT_SEED) -> UnshareCopyResult:
    """Run the Section 3.1.3 copy-policy comparison."""
    rows = {}
    for label, referenced_only in (("all", False), ("referenced", True)):
        config = shared_ptp_config().with_(
            unshare_copy_referenced_only=referenced_only
        )
        runtime = boot_android(Kernel(config=config), seed=seed)
        rng = DeterministicRng(50, app)
        last = None
        for round_index in range(1 + scale.steady_rounds):
            session = launch_app(runtime, APP_PROFILES[app], rng,
                                 revisit_passes=scale.revisit_passes,
                                 base_burst=scale.base_burst,
                                 round_seed=round_index)
            last = session.launch
            session.finish()
        rows[label] = last
    return UnshareCopyResult(
        app=app,
        copy_all_ptes=rows["all"].ptes_copied,
        copy_all_faults=rows["all"].file_backed_faults,
        referenced_only_ptes=rows["referenced"].ptes_copied,
        referenced_only_faults=rows["referenced"].file_backed_faults,
    )


# ---------------------------------------------------------------------------
# 2. x86-style level-1 write protection.
# ---------------------------------------------------------------------------

@dataclass
class L1WriteProtectResult:
    """First-fork cost with and without the L1 WP bit."""
    arm_first_fork_cycles: float
    arm_wp_ptes: int
    x86_first_fork_cycles: float
    x86_wp_ptes: int

    @property
    def first_fork_speedup(self) -> float:
        """ARM-model cost over x86-model cost."""
        return self.arm_first_fork_cycles / max(1.0, self.x86_first_fork_cycles)

    def render(self) -> str:
        """Plain-text rendering: the rows/series the paper reports."""
        return format_table(
            ["Model", "First-fork cycles", "PTEs write-protected"],
            [
                ["ARM (level-2 pass)",
                 f"{self.arm_first_fork_cycles / 1e6:.2f}M",
                 str(self.arm_wp_ptes)],
                ["x86-style level-1 bit",
                 f"{self.x86_first_fork_cycles / 1e6:.2f}M",
                 str(self.x86_wp_ptes)],
            ],
            title=("Ablation: level-1 write protection (Section 3.1.3) — "
                   f"first fork {self.first_fork_speedup:.2f}x cheaper "
                   "with the x86-style bit"),
        )


def l1_write_protect_ablation(scale: Scale = DEFAULT,
                              seed: int = DEFAULT_SEED,
                              ) -> L1WriteProtectResult:
    """Run the Section 3.1.3 hardware-support comparison."""
    measurements = {}
    for label, x86 in (("arm", False), ("x86", True)):
        config = shared_ptp_config().with_(x86_style_l1_write_protect=x86)
        runtime = boot_android(Kernel(config=config), seed=seed)
        child, report = runtime.fork_app("first-fork")
        measurements[label] = report
        runtime.kernel.exit_task(child)
    return L1WriteProtectResult(
        arm_first_fork_cycles=measurements["arm"].cycles,
        arm_wp_ptes=measurements["arm"].ptes_write_protected,
        x86_first_fork_cycles=measurements["x86"].cycles,
        x86_wp_ptes=measurements["x86"].ptes_write_protected,
    )


# ---------------------------------------------------------------------------
# 3. TLB sharing without domain support.
# ---------------------------------------------------------------------------

@dataclass
class DomainlessResult:
    """IPC stalls with domains vs the flush fallback."""
    with_domains_client: float
    with_domains_server: float
    without_domains_client: float
    without_domains_server: float
    domain_faults: int
    full_flushes_without_domains: int

    def render(self) -> str:
        """Plain-text rendering: the rows/series the paper reports."""
        return format_table(
            ["Model", "Client iTLB stalls", "Server iTLB stalls"],
            [
                ["domains (paper)",
                 f"{self.with_domains_client:.0f}",
                 f"{self.with_domains_server:.0f}"],
                ["flush-on-switch fallback",
                 f"{self.without_domains_client:.0f}",
                 f"{self.without_domains_server:.0f}"],
            ],
            title=("Ablation: TLB-entry confinement (Section 3.2.3) — "
                   f"domain faults taken: {self.domain_faults}; global "
                   f"flushes without domains: "
                   f"{self.full_flushes_without_domains}"),
        )


def domainless_ablation(scale: Scale = DEFAULT,
                        seed: int = DEFAULT_SEED) -> DomainlessResult:
    """Run the Section 3.2.3 confinement comparison.

    The fallback arm is the ``nodomain-flush`` translation policy from
    :mod:`repro.policy` — its implied configuration turns domain
    support off, so the registry and this ablation are one mechanism.
    """
    results = {}
    flushes = 0
    faults = 0
    for label, policy in (("domains", "baseline"),
                          ("fallback", "nodomain-flush")):
        config = shared_ptp_tlb_config().with_(policy=policy)
        runtime = boot_android(Kernel(config=config), seed=seed)
        bench = BinderBenchmark(
            runtime, config=BinderConfig(invocations=scale.ipc_invocations)
        )
        results[label] = bench.run()
        if label == "domains":
            faults = bench.noise.counters.domain_faults
        else:
            flushes = runtime.kernel.platform.cores[0].main_tlb.stats.flushes
    return DomainlessResult(
        with_domains_client=results["domains"].client.itlb_stall,
        with_domains_server=results["domains"].server.itlb_stall,
        without_domains_client=results["fallback"].client.itlb_stall,
        without_domains_server=results["fallback"].server.itlb_stall,
        domain_faults=faults,
        full_flushes_without_domains=flushes,
    )


# ---------------------------------------------------------------------------
# 4. 64KB large pages vs shared 4KB translations (Section 2.3.3).
# ---------------------------------------------------------------------------

@dataclass
class LargePageResult:
    """Sparse-code mapping under 4KB vs 64KB pages."""

    pages_touched: int
    frames_4k: int
    frames_64k: int
    tlb_misses_4k: int
    tlb_misses_64k: int

    @property
    def memory_ratio(self) -> float:
        """64KB-page memory over 4KB-page memory."""
        return self.frames_64k / max(1, self.frames_4k)

    def render(self) -> str:
        """Plain-text rendering: the rows/series the paper reports."""
        return format_table(
            ["Mapping", "Frames used", "Main-TLB misses"],
            [
                ["4KB pages", str(self.frames_4k),
                 str(self.tlb_misses_4k)],
                ["64KB large pages", str(self.frames_64k),
                 str(self.tlb_misses_64k)],
            ],
            title=("Ablation: 64KB large pages on sparsely accessed code "
                   f"({self.pages_touched} pages touched) — "
                   f"{self.memory_ratio:.1f}x the physical memory for "
                   "fewer TLB misses (the Section 2.3.3 trade-off; large "
                   "pages and PTP sharing compose)"),
        )


def large_page_ablation(pages: int = 512,
                        touch_every: int = 5) -> LargePageResult:
    """Map the same sparse code with 4KB and with 64KB pages.

    The access pattern touches every ``touch_every``-th page — the
    sparsity the paper measured in Figure 4 — so large pages trade
    physical memory for TLB reach.
    """
    from repro.common.events import ifetch
    from repro.common.perms import MapFlags, Prot
    from repro.hw.memory import FrameKind

    results = {}
    for label, large in (("4k", False), ("64k", True)):
        kernel = Kernel(config=shared_ptp_config())
        task = kernel.create_process("proc")
        file = kernel.page_cache.create_file("libbig.so", pages)
        vma = kernel.syscalls.mmap(
            task, pages * 4096, Prot.READ | Prot.EXEC, MapFlags.PRIVATE,
            file=file, use_large_pages=large,
        )
        trace = [
            ifetch(vma.start + index * 4096)
            for index in range(0, pages, touch_every)
        ]
        kernel.run(task, trace)
        core = kernel.platform.cores[0]
        results[label] = (
            kernel.memory.live_frames(FrameKind.FILE),
            core.main_tlb.stats.misses,
        )
    return LargePageResult(
        pages_touched=len(range(0, pages, touch_every)),
        frames_4k=results["4k"][0],
        frames_64k=results["64k"][0],
        tlb_misses_4k=results["4k"][1],
        tlb_misses_64k=results["64k"][1],
    )


# ---------------------------------------------------------------------------
# 5. PTE duplication in the shared L2 cache (the paper's Figure 1).
# ---------------------------------------------------------------------------

@dataclass
class CachePollutionResult:
    """PTE footprint in the shared L2, private vs shared page tables."""

    processes: int
    code_pages: int
    stock_pte_lines: int
    shared_pte_lines: int
    stock_walk_stall: float
    shared_walk_stall: float

    @property
    def line_reduction(self) -> float:
        """Fractional reduction in duplicated PTE lines."""
        return 1.0 - self.shared_pte_lines / max(1, self.stock_pte_lines)

    def render(self) -> str:
        """Plain-text rendering: the rows/series the paper reports."""
        return format_table(
            ["Page tables", "PTE lines in shared L2", "Walk stall cycles"],
            [
                ["private (stock)", str(self.stock_pte_lines),
                 f"{self.stock_walk_stall:.0f}"],
                ["shared PTPs", str(self.shared_pte_lines),
                 f"{self.shared_walk_stall:.0f}"],
            ],
            title=(f"Figure 1's motivation: {self.processes} processes x "
                   f"{self.code_pages} shared code pages — shared PTPs "
                   f"remove {100 * self.line_reduction:.0f}% of the "
                   "duplicated PTE cache lines"),
        )


def _l2_ptp_lines(kernel, ptp_pfns) -> int:
    """Count shared-L2 lines holding content of the given PTP frames."""
    l2 = kernel.platform.shared_l2
    return sum(1 for line in l2.lines()
               if (line << l2.line_shift) >> 12 in ptp_pfns)


def _code_ptp_pfns(kernel, tasks, start: int, end: int) -> set:
    """PFNs of every PTP mapping ``[start, end)`` in any of ``tasks``."""
    pfns = set()
    for task in tasks:
        first = task.mm.tables.slot_index(start)
        last = task.mm.tables.slot_index(end - 1)
        for slot_index in range(first, last + 1):
            slot = task.mm.tables.slot(slot_index)
            if slot is not None and slot.ptp is not None:
                pfns.add(slot.ptp.frame.pfn)
    return pfns


def cache_pollution_experiment(processes: int = 4,
                               code_pages: int = 400,
                               seed: int = DEFAULT_SEED,
                               ) -> CachePollutionResult:
    """Run the same shared code in N processes on N cores and measure
    how much of the shared L2 the table walker's PTE reads occupy.

    With private page tables every process's walks load *its own* PTE
    lines (duplicates of the same translations); with shared PTPs one
    copy serves everyone — the deduplication of Figure 1.
    """
    from repro.common.events import ifetch

    measurements = {}
    for label, config_name in (("stock", "stock"), ("shared", "shared-ptp")):
        runtime = build_runtime(config_name, seed=seed)
        kernel = runtime.kernel
        code_vma = runtime.mapped["libwebviewchromium.so"].code_vma
        pages = [code_vma.start + i * 4096 for i in range(code_pages)]
        tasks = []
        for index in range(processes):
            child, _ = runtime.fork_app(f"app{index}")
            child.pinned_core = index % len(kernel.platform.cores)
            tasks.append(child)
        walk_stall = 0.0
        for sweep in range(2):
            for task in tasks:
                before = task.stats.itlb_stall + task.stats.dtlb_stall
                kernel.run(task, [ifetch(addr) for addr in pages])
                walk_stall += (task.stats.itlb_stall
                               + task.stats.dtlb_stall - before)
        pfns = _code_ptp_pfns(kernel, tasks + [runtime.zygote],
                              pages[0], pages[-1] + 4096)
        measurements[label] = (_l2_ptp_lines(kernel, pfns), walk_stall)
    return CachePollutionResult(
        processes=processes,
        code_pages=code_pages,
        stock_pte_lines=measurements["stock"][0],
        shared_pte_lines=measurements["shared"][0],
        stock_walk_stall=measurements["stock"][1],
        shared_walk_stall=measurements["shared"][1],
    )


# ---------------------------------------------------------------------------
# 6. Sharer-count scalability.
# ---------------------------------------------------------------------------

@dataclass
class ScalabilityPoint:
    """One (process count, PTP frames) sample."""
    processes: int
    stock_ptp_frames: int
    shared_ptp_frames: int


@dataclass
class ScalabilityResult:
    """The page-table-memory growth series."""
    points: List[ScalabilityPoint]

    def render(self) -> str:
        """Plain-text rendering: the rows/series the paper reports."""
        rows = [
            [str(p.processes), str(p.stock_ptp_frames),
             str(p.shared_ptp_frames)]
            for p in self.points
        ]
        return format_table(
            ["Live apps", "PTP frames (stock)", "PTP frames (shared)"],
            rows,
            title=("Scalability: page-table memory vs process count "
                   "(the paper's motivating linear-growth observation)"),
        )


def scalability_sweep(process_counts: List[int] = None,
                      seed: int = DEFAULT_SEED) -> ScalabilityResult:
    """Fork N concurrent apps and count live page-table frames."""
    process_counts = process_counts or [1, 2, 4, 8, 16]
    points = []
    for count in process_counts:
        frames = {}
        for label, config_name in (("stock", "stock"),
                                   ("shared", "shared-ptp")):
            runtime = build_runtime(config_name, seed=seed)
            for index in range(count):
                runtime.fork_app(f"app-{index}")
            frames[label] = runtime.kernel.memory.live_frames(FrameKind.PTP)
        points.append(ScalabilityPoint(
            processes=count,
            stock_ptp_frames=frames["stock"],
            shared_ptp_frames=frames["shared"],
        ))
    return ScalabilityResult(points=points)
