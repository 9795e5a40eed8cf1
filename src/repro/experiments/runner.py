"""The ``satr`` command line: regenerate any table or figure.

Usage::

    satr table4                      # one artefact
    satr launch                      # one experiment group (figures 7-9)
    satr all --scale quick           # everything, reduced sizing
    satr all --scale quick --jobs 4  # ... on 4 local warm workers
    satr all --seed 11               # vary the simulation seed
    satr all --no-cache              # force recomputation

Every target is planned as a list of deterministic cells plus a pure
merge (see :mod:`repro.orchestrate`), so ``--jobs N`` runs cells on N
local warm workers (started by the command's first cache miss and
held to its end, so they keep their boot images across targets) and a
warm result cache replays them, with byte-identical reports either
way.  Reports go to stdout; timing, progress and the cache hit/miss
summary go to stderr, so stdout stays comparable across runs.

The ``trace`` subcommand records structured kernel events while one of
the workloads runs and exports them::

    satr trace fork --scale quick --format chrome -o /tmp/t.json
    satr trace launch --format jsonl -o launch.jsonl

The ``check`` subcommand runs a workload under the runtime invariant
checker and the shared-vs-stock differential oracle (non-zero exit on
any violation or divergence)::

    satr check fork --scale quick
    satr check ipc --scale quick --jobs 2
    satr check fork --scale quick --inject skip-write-protect  # must fail
    satr check launch --scale quick --policy victima  # policy under check

The ``metrics`` subcommand samples sharing/TLB/page-table gauges while
a workload runs and exports the series::

    satr metrics fork --scale quick                      # terminal summary
    satr metrics launch --format prom -o launch.prom     # exposition text
    satr metrics steady --every 500 --format jsonl       # time series

The ``compare`` subcommand runs the translation-policy ablation
matrix (see :mod:`repro.policy`): every requested policy under every
requested workload, ranked per target by page-walk cycles::

    satr compare --scale quick
    satr compare --policies baseline,victima --targets fork --jobs 2
    satr compare --scale quick -o compare.json   # canonical JSON too

The ``bench`` subcommand regenerates the metrics-overhead baseline
(``BENCH_metrics.json``) or gates against a committed one::

    satr bench --scale quick
    satr bench --compare BENCH_metrics.json   # non-zero exit on regression

The ``serve`` subcommand runs the long-lived scenario daemon: scenario
requests over HTTP, the result cache as a shared memoization layer
across clients, streamed per-cell progress, live ``/metrics``::

    satr serve --port 8080 --workers 2
    satr serve --port 0 --port-file /tmp/satr.port   # ephemeral port

The ``loadgen`` subcommand drives a running server and reports
p50/p95/p99 latency and throughput::

    satr loadgen --url http://127.0.0.1:8080 --targets fork,ipc \\
        --concurrency 4 --requests 40 -o loadgen.json

The ``sweep`` subcommand writes a target's cells into a JSONL
manifest, one payload line per cell in plan order, and ``--since``
re-executes only cells whose config digest changed since a previous
manifest::

    satr sweep fork --scale quick -o sweep-fork.jsonl
    satr sweep fork --scale quick --seed 11 -o sweep-fork.jsonl \\
        --since sweep-fork.jsonl

The ``cache`` subcommand inspects or prunes the result cache::

    satr cache stats
    satr cache prune --max-bytes 2G --max-age 14d
"""

import argparse
import contextlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.experiments import ablations, fork, ipc, launch, motivation, steady
from repro.experiments.common import (
    DEFAULT_SEED,
    SCALES,
    Scale,
    scale_from_params,
    scale_to_params,
)
from repro.orchestrate import (
    Cell,
    Orchestrator,
    ResultCache,
    Telemetry,
    kernel_config_fields,
    open_executor,
)


# ---------------------------------------------------------------------------
# Rendered cells: artefacts whose driver runs whole inside one cell.
# ---------------------------------------------------------------------------

#: Drivers wrapped as single cells: artefact -> f(scale, seed) -> report.
#: Used for the motivation studies (each boots its own runtime) and the
#: ablations (each is a self-contained comparison).
RENDERED_DRIVERS: Dict[str, Callable[[Scale, int], str]] = {
    "table1": lambda s, seed: motivation.table1(s, seed=seed).render(),
    "figure2": lambda s, seed: motivation.figure2(s, seed=seed).render(),
    "figure3": lambda s, seed: motivation.figure3(s, seed=seed).render(),
    "table2": lambda s, seed: motivation.table2(s, seed=seed).render(),
    "figure4": lambda s, seed: motivation.figure4(s, seed=seed).render(),
    "ablation-unshare-copy":
        lambda s, seed: ablations.unshare_copy_ablation(s, seed=seed).render(),
    "ablation-l1-write-protect":
        lambda s, seed: ablations.l1_write_protect_ablation(
            s, seed=seed).render(),
    "ablation-domainless":
        lambda s, seed: ablations.domainless_ablation(s, seed=seed).render(),
    "ablation-large-page":
        lambda s, seed: ablations.large_page_ablation().render(),
    "ablation-cache-pollution":
        lambda s, seed: ablations.cache_pollution_experiment(
            seed=seed).render(),
    "ablation-scalability":
        lambda s, seed: ablations.scalability_sweep(seed=seed).render(),
}

#: The six ablation artefacts, in presentation order.
ABLATION_ARTEFACTS = [
    "ablation-unshare-copy", "ablation-l1-write-protect",
    "ablation-domainless", "ablation-large-page",
    "ablation-cache-pollution", "ablation-scalability",
]

#: The five motivation artefacts, in presentation order.
MOTIVATION_ARTEFACTS = ["table1", "figure2", "figure3", "table2", "figure4"]


def rendered_cell(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one rendered-artefact driver inside a cell."""
    driver = RENDERED_DRIVERS[params["artefact"]]
    scale = scale_from_params(params["scale"])
    return {"report": driver(scale, params["seed"])}


def _all_config_fields() -> Dict[str, Any]:
    """Every kernel configuration's fields, for multi-config cells.

    Rendered cells may boot several kernels internally, so their digest
    conservatively covers all four configurations — any policy-knob
    change invalidates them.
    """
    from repro.experiments.common import CONFIG_FACTORIES

    return {name: kernel_config_fields(name) for name in CONFIG_FACTORIES}


def rendered_cells(artefacts: List[str], scale: Scale,
                   seed: int) -> List[Cell]:
    """One single-cell plan entry per rendered artefact."""
    return [
        Cell(
            experiment=artefact,
            cell_id="report",
            fn="repro.experiments.runner:rendered_cell",
            params={
                "artefact": artefact,
                "scale": scale_to_params(scale),
                "seed": seed,
            },
            config_fields=_all_config_fields(),
        )
        for artefact in artefacts
    ]


def _join_reports(payloads: List[Dict[str, Any]]) -> str:
    return "\n\n".join(p["report"] for p in payloads)


# ---------------------------------------------------------------------------
# Target planning: every target -> cells + merge.
# ---------------------------------------------------------------------------

@dataclass
class TargetPlan:
    """What one target needs: its cells and how to render their output."""

    cells: List[Cell]
    render: Callable[[List[Any]], str]


def _rendered_planner(artefacts: List[str]) -> Callable[[Scale, int],
                                                        TargetPlan]:
    def planner(scale: Scale, seed: int) -> TargetPlan:
        return TargetPlan(rendered_cells(artefacts, scale, seed),
                          _join_reports)
    return planner


def _launch_planner(render: Callable[[launch.LaunchResult], str]):
    def planner(scale: Scale, seed: int,
                policy: str = "baseline") -> TargetPlan:
        return TargetPlan(launch.launch_cells(scale, seed, policy),
                          lambda ps: render(launch.merge_launch(ps)))
    return planner


def _steady_planner(render: Callable[[steady.SteadyResult], str]):
    def planner(scale: Scale, seed: int,
                policy: str = "baseline") -> TargetPlan:
        return TargetPlan(steady.steady_cells(scale, seed, policy),
                          lambda ps: render(steady.merge_steady(ps)))
    return planner


def _fork_planner(scale: Scale, seed: int,
                  policy: str = "baseline") -> TargetPlan:
    table4_cells = fork.table4_cells(scale, seed, policy)
    split = len(table4_cells)

    def render(payloads: List[Any]) -> str:
        return "\n\n".join([
            fork.merge_table4(payloads[:split]).render(),
            fork.merge_table3(payloads[split:]).render(),
        ])

    return TargetPlan(table4_cells + fork.table3_cells(scale, seed, policy),
                      render)


#: target name -> planner(scale, seed) -> TargetPlan.
TARGETS: Dict[str, Callable[[Scale, int], TargetPlan]] = {
    "table1": _rendered_planner(["table1"]),
    "figure2": _rendered_planner(["figure2"]),
    "figure3": _rendered_planner(["figure3"]),
    "table2": _rendered_planner(["table2"]),
    "figure4": _rendered_planner(["figure4"]),
    "motivation": _rendered_planner(MOTIVATION_ARTEFACTS),
    "table3": lambda s, seed, policy="baseline": TargetPlan(
        fork.table3_cells(s, seed, policy),
        lambda ps: fork.merge_table3(ps).render()),
    "table4": lambda s, seed, policy="baseline": TargetPlan(
        fork.table4_cells(s, seed, policy),
        lambda ps: fork.merge_table4(ps).render()),
    "fork": _fork_planner,
    "figure7": _launch_planner(lambda r: r.render_figure7()),
    "figure8": _launch_planner(lambda r: r.render_figure8()),
    "figure9": _launch_planner(lambda r: r.render_figure9()),
    "launch": _launch_planner(lambda r: r.render()),
    "figure10": _steady_planner(lambda r: r.render_figure10()),
    "figure11": _steady_planner(lambda r: r.render_figure11()),
    "figure12": _steady_planner(lambda r: r.render_figure12()),
    "steady": _steady_planner(lambda r: r.render()),
    "figure13": lambda s, seed, policy="baseline": TargetPlan(
        ipc.ipc_cells(s, seed=seed, policy=policy),
        lambda ps: ipc.merge_ipc(ps).render()),
    "ipc": lambda s, seed, policy="baseline": TargetPlan(
        ipc.ipc_cells(s, seed=seed, policy=policy),
        lambda ps: ipc.merge_ipc(ps).render()),
    "ablations": _rendered_planner(ABLATION_ARTEFACTS),
}

#: Groups executed by ``satr all`` (each covers several artefacts).
ALL_GROUPS = ["motivation", "fork", "launch", "steady", "ipc", "ablations"]

#: Targets whose planners accept a translation policy.  The rendered
#: drivers (motivation studies, ablations) are self-contained
#: comparisons with their own config axes, so a policy override would
#: be ambiguous there.
POLICY_TARGETS = frozenset(
    name for name in TARGETS
    if name not in RENDERED_DRIVERS and name != "motivation"
    and name != "ablations")


@dataclass
class RunContext:
    """How to execute: the orchestrator (executor + cache) and the seed."""

    orchestrator: Orchestrator = field(default_factory=Orchestrator)
    seed: int = DEFAULT_SEED
    policy: str = "baseline"


def plan_target(target: str, scale: Scale, seed: int = DEFAULT_SEED,
                policy: str = "baseline") -> TargetPlan:
    """The cell list and merge for one named target."""
    try:
        planner = TARGETS[target]
    except KeyError:
        raise SystemExit(
            f"unknown target {target!r}; choose from "
            f"{', '.join(sorted(TARGETS) + ['all'])}"
        )
    if policy != "baseline":
        if target not in POLICY_TARGETS:
            raise SystemExit(
                f"target {target!r} does not take --policy; policy-aware "
                f"targets: {', '.join(sorted(POLICY_TARGETS))}")
        return planner(scale, seed, policy=policy)
    return planner(scale, seed)


def run_target(target: str, scale: Scale,
               ctx: RunContext = None) -> str:
    """Run one named experiment target and return its report."""
    ctx = ctx or RunContext()
    plan = plan_target(target, scale, ctx.seed, ctx.policy)
    return plan.render(ctx.orchestrator.run(plan.cells))


# ---------------------------------------------------------------------------
# Shared executor/cache plumbing for the cell-running subcommands.
# ---------------------------------------------------------------------------

def _jobs(text: str) -> int:
    """``--jobs`` values: positive integers (a parser error otherwise)."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    """The executor/cache flags every cell-running subcommand shares."""
    parser.add_argument(
        "--jobs", type=_jobs, default=1, metavar="N",
        help="cells run on N local warm workers, started by this "
             "command's first cache miss; 1 runs them in-process "
             "(default: 1)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache root (default: $SATR_CACHE_DIR or "
             "~/.cache/satr)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell; neither read nor write the cache")


@contextlib.contextmanager
def _orchestrated(args: argparse.Namespace
                  ) -> Iterator[Tuple[Orchestrator, Telemetry]]:
    """(orchestrator, telemetry) from the shared executor/cache flags.

    The executor lives as long as the ``with`` block, so one command's
    local workers serve every target it runs after they start.
    """
    telemetry = Telemetry(
        progress=lambda line: print(line, file=sys.stderr, flush=True))
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    with open_executor(args.jobs) as executor:
        yield Orchestrator(cache=cache, telemetry=telemetry,
                           executor=executor), telemetry


def trace_main(argv) -> int:
    """The ``satr trace`` subcommand: run, report, export."""
    from repro.experiments import tracing
    from repro.experiments.observed import OBSERVED_TARGETS
    from repro.trace import DEFAULT_RING_SIZE

    parser = argparse.ArgumentParser(
        prog="satr trace",
        description=("Record structured kernel events (faults, PTP "
                     "share/unshare, TLB fill/flush, ...) while a "
                     "workload runs; export JSONL or a Perfetto-loadable "
                     "Chrome trace."),
    )
    parser.add_argument("target", choices=OBSERVED_TARGETS,
                        help="workload to trace")
    parser.add_argument("--scale", default="default",
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--format", default="chrome",
                        choices=("chrome", "jsonl"),
                        help="export format (default: chrome)")
    parser.add_argument("--ring-size", type=int,
                        default=DEFAULT_RING_SIZE, metavar="N",
                        help="trace ring-buffer capacity "
                             f"(default: {DEFAULT_RING_SIZE})")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="output file (default: trace-<target>.json "
                             "or .jsonl)")
    _add_exec_args(parser)
    args = parser.parse_args(argv)
    if args.ring_size < 1:
        parser.error("--ring-size must be >= 1")
    scale = SCALES[args.scale]
    output = args.output or (
        f"trace-{args.target}.json" if args.format == "chrome"
        else f"trace-{args.target}.jsonl"
    )

    started = time.time()
    with _orchestrated(args) as (orchestrator, telemetry):
        result = tracing.run_trace(args.target, scale,
                                   orchestrator=orchestrator,
                                   seed=args.seed,
                                   ring_size=args.ring_size)
    written = tracing.export_result(result, output, args.format,
                                    scale_name=scale.name, seed=args.seed)
    elapsed = time.time() - started
    print(f"[satr] trace {args.target}: {elapsed:.1f}s, "
          f"{written} events -> {output}", file=sys.stderr)
    print(f"=== trace {args.target} (scale={scale.name}) ===")
    print(result.render())
    print()
    print(telemetry.summary(), file=sys.stderr)
    return 0 if result.all_agree else 1


def check_main(argv) -> int:
    """The ``satr check`` subcommand: invariants + differential oracle."""
    from repro.check import mutation_names
    from repro.experiments import checking
    from repro.experiments.observed import OBSERVED_TARGETS

    parser = argparse.ArgumentParser(
        prog="satr check",
        description=("Run one workload under the runtime invariant "
                     "checker (refcounts, COW protection, TLB "
                     "coherence, domain confinement) and the "
                     "shared-vs-stock differential oracle.  Exits "
                     "non-zero on any violation or divergence."),
    )
    parser.add_argument("target", choices=OBSERVED_TARGETS,
                        help="workload to check")
    parser.add_argument("--scale", default="default",
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--inject", default=None, metavar="MUTATION",
                        choices=mutation_names(),
                        help="break one protocol step in the sharing "
                             "cell (the run must then fail); one of: "
                             f"{', '.join(mutation_names())}")
    parser.add_argument("--every", type=int, default=0, metavar="N",
                        help="additionally sweep every N access events "
                             "(default: 0, operation boundaries only)")
    from repro.policy import policy_names

    parser.add_argument("--policy", default="baseline",
                        choices=policy_names(),
                        help="translation policy for the sharing cell "
                             "(the stock oracle reference stays "
                             "baseline; default: baseline)")
    _add_exec_args(parser)
    args = parser.parse_args(argv)
    if args.every < 0:
        parser.error("--every must be >= 0")
    scale = SCALES[args.scale]

    started = time.time()
    with _orchestrated(args) as (orchestrator, telemetry):
        result = checking.run_check(args.target, scale,
                                    orchestrator=orchestrator,
                                    seed=args.seed, inject=args.inject,
                                    every=args.every, policy=args.policy)
    elapsed = time.time() - started
    print(f"[satr] check {args.target}: {elapsed:.1f}s",
          file=sys.stderr)
    print(f"=== check {args.target} (scale={scale.name}) ===")
    print(result.render())
    print()
    print(telemetry.summary(), file=sys.stderr)
    return 0 if result.ok else 1


def metrics_main(argv) -> int:
    """The ``satr metrics`` subcommand: sample, report, export."""
    from repro.experiments import metricscells
    from repro.experiments.observed import OBSERVED_TARGETS
    from repro.metrics import DEFAULT_SAMPLE_EVERY

    parser = argparse.ArgumentParser(
        prog="satr metrics",
        description=("Sample sharing/TLB/page-table gauges (shared vs "
                     "private PTPs, page-table bytes, NEED_COPY slots, "
                     "unshare causes, TLB occupancy/miss rates, fault "
                     "rates) while a workload runs; print a terminal "
                     "summary or export Prometheus text / JSONL."),
    )
    parser.add_argument("target", choices=OBSERVED_TARGETS,
                        help="workload to sample")
    parser.add_argument("--scale", default="default",
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--every", type=int,
                        default=DEFAULT_SAMPLE_EVERY, metavar="N",
                        help="sample every N access events, plus every "
                             "lifecycle boundary (default: "
                             f"{DEFAULT_SAMPLE_EVERY}; 0 = boundaries "
                             "only)")
    parser.add_argument("--format", default="summary",
                        choices=("summary", "prom", "jsonl"),
                        help="output format (default: summary)")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="output file for prom/jsonl (default: "
                             "metrics-<target>.prom or .jsonl)")
    _add_exec_args(parser)
    args = parser.parse_args(argv)
    if args.every < 0:
        parser.error("--every must be >= 0")
    scale = SCALES[args.scale]

    started = time.time()
    with _orchestrated(args) as (orchestrator, telemetry):
        result = metricscells.run_metrics(args.target, scale,
                                          orchestrator=orchestrator,
                                          seed=args.seed, every=args.every)
    elapsed = time.time() - started
    if args.format == "summary":
        print(f"[satr] metrics {args.target}: {elapsed:.1f}s",
              file=sys.stderr)
        print(f"=== metrics {args.target} (scale={scale.name}) ===")
        print(result.render())
        print()
    else:
        suffix = "prom" if args.format == "prom" else "jsonl"
        output = args.output or f"metrics-{args.target}.{suffix}"
        written = metricscells.export_result(result, output, args.format)
        print(f"[satr] metrics {args.target}: {elapsed:.1f}s, "
              f"{written} lines -> {output}", file=sys.stderr)
    print(telemetry.summary(), file=sys.stderr)
    return 0 if result.ok else 1


def compare_main(argv) -> int:
    """The ``satr compare`` subcommand: the policy x target matrix."""
    from repro.experiments import compare
    from repro.experiments.observed import OBSERVED_TARGETS
    from repro.policy import policy_names

    known_policies = ", ".join(policy_names())
    parser = argparse.ArgumentParser(
        prog="satr compare",
        description=("Run every requested translation policy under "
                     "every requested workload (through the cached, "
                     "parallel-safe orchestrator) and print per-target "
                     "tables ranked by page-walk cycles, with TLB miss "
                     "rate, page-table bytes, sharing ratio and each "
                     "policy's own event counters."),
    )
    parser.add_argument("--targets",
                        default=",".join(compare.DEFAULT_COMPARE_TARGETS),
                        help="comma-separated workloads (default: "
                             f"{','.join(compare.DEFAULT_COMPARE_TARGETS)}; "
                             f"choose from {', '.join(OBSERVED_TARGETS)})")
    parser.add_argument("--policies", default=None,
                        help="comma-separated policies (default: all "
                             f"registered: {known_policies})")
    parser.add_argument("--scale", default="default",
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="also write the matrix as canonical JSON")
    _add_exec_args(parser)
    args = parser.parse_args(argv)
    targets = [t for t in args.targets.split(",") if t]
    unknown = sorted(set(targets) - set(OBSERVED_TARGETS))
    if unknown:
        parser.error(f"unknown target(s) {', '.join(unknown)}; choose "
                     f"from {', '.join(OBSERVED_TARGETS)}")
    policies = None
    if args.policies is not None:
        policies = [p for p in args.policies.split(",") if p]
        bad = sorted(set(policies) - set(policy_names()))
        if bad:
            parser.error(f"unknown policy(ies) {', '.join(bad)}; choose "
                         f"from {known_policies}")
    scale = SCALES[args.scale]

    started = time.time()
    with _orchestrated(args) as (orchestrator, telemetry):
        result = compare.run_compare(targets, policies, scale,
                                     orchestrator=orchestrator,
                                     seed=args.seed)
    elapsed = time.time() - started
    print(f"[satr] compare: {elapsed:.1f}s", file=sys.stderr)
    print(f"=== compare (scale={scale.name}) ===")
    print(result.render())
    print()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"[satr] compare matrix -> {args.output}", file=sys.stderr)
    print(telemetry.summary(), file=sys.stderr)
    return 0 if result.ok else 1


def bench_main(argv) -> int:
    """The ``satr bench`` subcommand: perf baseline / regression gate."""
    from repro.experiments import bench

    parser = argparse.ArgumentParser(
        prog="satr bench",
        description=("Time every metrics target with sampling off and "
                     "on (min of N runs) and write the baseline report; "
                     "with --compare, gate the fresh measurement "
                     "against a committed baseline and exit non-zero "
                     "on a wall-time regression or any gauge drift."),
    )
    parser.add_argument("--scale", default="quick",
                        choices=sorted(SCALES),
                        help="experiment sizing (default: quick)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--every", type=int, metavar="N",
                        default=None,
                        help="sampling interval (default: the metrics "
                             "default)")
    parser.add_argument("--runs", type=int, default=bench.DEFAULT_RUNS,
                        metavar="N",
                        help="wall-time samples per mode "
                             f"(default: {bench.DEFAULT_RUNS})")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="report destination (default: "
                             "BENCH_metrics.json; with --compare the "
                             "report is only written when -o is given)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="baseline report to gate against")
    parser.add_argument("--tolerance", type=float,
                        default=bench.DEFAULT_TOLERANCE, metavar="F",
                        help="allowed wall-time regression fraction "
                             f"(default: {bench.DEFAULT_TOLERANCE})")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.every is not None and args.every < 0:
        parser.error("--every must be >= 0")
    from repro.metrics import DEFAULT_SAMPLE_EVERY

    every = DEFAULT_SAMPLE_EVERY if args.every is None else args.every
    scale = SCALES[args.scale]

    started = time.time()
    report = bench.run_bench(scale, seed=args.seed, every=every,
                             runs=args.runs)
    elapsed = time.time() - started
    print(f"[satr] bench: {elapsed:.1f}s", file=sys.stderr)
    print(bench.render_report(report))

    if args.compare is None:
        output = args.output or "BENCH_metrics.json"
        bench.write_report(report, output)
        print(f"[satr] bench report -> {output}", file=sys.stderr)
        return 0

    baseline = bench.load_report(args.compare)
    problems = bench.compare_reports(report, baseline,
                                     tolerance=args.tolerance)
    if args.output:
        bench.write_report(report, args.output)
        print(f"[satr] bench report -> {args.output}", file=sys.stderr)
    if problems:
        print(f"[satr] bench vs {args.compare}: "
              f"{len(problems)} problem(s)", file=sys.stderr)
        for problem in problems:
            print(f"  REGRESSION: {problem}")
        return 1
    print(f"[satr] bench vs {args.compare}: ok", file=sys.stderr)
    return 0


def serve_main(argv) -> int:
    """The ``satr serve`` subcommand: the long-lived scenario daemon."""
    import signal
    import threading

    from repro.serve.app import ServeApp, make_server
    from repro.serve.model import SERVE_TARGETS

    parser = argparse.ArgumentParser(
        prog="satr serve",
        description=("Serve scenario requests over HTTP: POST /run "
                     f"(target in {{{', '.join(SERVE_TARGETS)}}}, "
                     "scale, seed), GET /runs[/<id>[/events|/report]], "
                     "GET /metrics, GET /healthz.  The result cache "
                     "memoizes across clients; identical in-flight "
                     "requests coalesce; SIGTERM drains gracefully."),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="TCP port; 0 picks an ephemeral port "
                             "(default: 8080)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker threads executing runs (default: 2)")
    parser.add_argument("--queue-limit", type=int, default=64, metavar="N",
                        help="max queued runs before 503 (default: 64)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening "
                             "(handy with --port 0)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--verbose", action="store_true",
                        help="log each HTTP request to stderr")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.queue_limit < 1:
        parser.error("--queue-limit must be >= 1")
    if args.port < 0:
        parser.error("--port must be >= 0")

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    app = ServeApp(cache=cache, workers=args.workers,
                   queue_limit=args.queue_limit)
    server = make_server(args.host, args.port, app, verbose=args.verbose)
    print(f"[satr] serve: listening on http://{args.host}:{server.port} "
          f"({args.workers} worker(s), cache "
          f"{'off' if cache is None else cache.root})",
          file=sys.stderr, flush=True)
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{server.port}\n")

    def _graceful_stop(signum, frame) -> None:
        # Refuse new work immediately; finish accepted runs off-thread
        # (shutdown() would deadlock if called from the handler while
        # serve_forever runs on this same thread).
        app.begin_drain()
        print("[satr] serve: draining...", file=sys.stderr, flush=True)
        threading.Thread(target=_drain_and_shutdown, daemon=True).start()

    def _drain_and_shutdown() -> None:
        app.drain()
        server.shutdown()

    signal.signal(signal.SIGTERM, _graceful_stop)
    signal.signal(signal.SIGINT, _graceful_stop)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    print("[satr] serve: drained; bye", file=sys.stderr, flush=True)
    return 0


def loadgen_main(argv) -> int:
    """The ``satr loadgen`` subcommand: latency/throughput client."""
    from repro.serve import loadgen
    from repro.serve.model import DEFAULT_SCALE, SERVE_TARGETS

    parser = argparse.ArgumentParser(
        prog="satr loadgen",
        description=("Drive a running `satr serve` with concurrent "
                     "scenario requests and report p50/p95/p99 latency "
                     "and throughput."),
    )
    parser.add_argument("--url", required=True,
                        help="server base URL, e.g. http://127.0.0.1:8080")
    parser.add_argument("--targets", default="fork",
                        help="comma-separated targets to request "
                             f"(default: fork; choose from "
                             f"{', '.join(SERVE_TARGETS)})")
    parser.add_argument("--scale", default=DEFAULT_SCALE,
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--concurrency", type=int, default=4, metavar="N",
                        help="concurrent client workers (default: 4)")
    parser.add_argument("--requests", type=int, default=None, metavar="N",
                        help="total measured requests (default: 20 "
                             "unless --duration is given)")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="measured wall-clock budget instead of a "
                             "request count")
    parser.add_argument("--no-warmup", action="store_true",
                        help="skip the one-request-per-target cache "
                             "warm-up pass")
    parser.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="per-request timeout (default: 600)")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the JSON report here")
    args = parser.parse_args(argv)
    if args.concurrency < 1:
        parser.error("--concurrency must be >= 1")
    if args.requests is not None and args.requests < 1:
        parser.error("--requests must be >= 1")
    if args.duration is not None and args.duration <= 0:
        parser.error("--duration must be > 0")
    targets = [t for t in args.targets.split(",") if t]
    unknown = sorted(set(targets) - set(SERVE_TARGETS))
    if unknown:
        parser.error(f"unknown target(s) {', '.join(unknown)}; choose "
                     f"from {', '.join(SERVE_TARGETS)}")

    report = loadgen.run_loadgen(
        args.url, targets, scale=args.scale, seed=args.seed,
        concurrency=args.concurrency, requests=args.requests,
        duration_s=args.duration, warmup=not args.no_warmup,
        timeout_s=args.timeout)
    print(loadgen.render_loadgen_report(report))
    if args.output:
        loadgen.write_report(report, args.output)
        print(f"[satr] loadgen report -> {args.output}", file=sys.stderr)
    return 0 if report["errors"] == 0 else 1


def _parse_size(text: str, parser: argparse.ArgumentParser) -> int:
    """``500M``/``2G``-style sizes to bytes (K/M/G/T, binary units)."""
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3, "T": 1024 ** 4}
    raw = text.strip()
    factor = 1
    if raw and raw[-1].upper() in units:
        factor = units[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        parser.error(f"bad size {text!r}; use e.g. 500M, 2G")
    if value < 0:
        parser.error(f"size {text!r} must be >= 0")
    return int(value * factor)


def _parse_age(text: str, parser: argparse.ArgumentParser) -> float:
    """``36h``/``14d``-style ages to seconds (s/m/h/d/w)."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
             "w": 7 * 86400.0}
    raw = text.strip()
    factor = units["s"]
    if raw and raw[-1].lower() in units:
        factor = units[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        parser.error(f"bad age {text!r}; use e.g. 90s, 36h, 14d")
    if value < 0:
        parser.error(f"age {text!r} must be >= 0")
    return value * factor


def _human_bytes(count: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(count) < 1024 or unit == "GiB":
            return (f"{count:.0f} {unit}" if unit == "B"
                    else f"{count:.1f} {unit}")
        count /= 1024
    return f"{count:.1f} GiB"


def cache_main(argv) -> int:
    """The ``satr cache`` subcommand: stats and prune."""
    parser = argparse.ArgumentParser(
        prog="satr cache",
        description=("Inspect (stats) or bound (prune) the content-"
                     "addressed result cache.  Prune evicts by age "
                     "first, then oldest-first until the survivors fit "
                     "--max-bytes."),
    )
    parser.add_argument("action", choices=("stats", "prune"))
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache root (default: $SATR_CACHE_DIR or "
                             "~/.cache/satr)")
    parser.add_argument("--max-bytes", default=None, metavar="SIZE",
                        help="prune: total artifact budget, e.g. 500M, 2G")
    parser.add_argument("--max-age", default=None, metavar="AGE",
                        help="prune: drop artifacts older than AGE, "
                             "e.g. 36h, 14d")
    args = parser.parse_args(argv)
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"artifacts:  {stats['artifacts']}")
        print(f"size:       {_human_bytes(stats['bytes'])} "
              f"({stats['bytes']} bytes)")
        if stats["artifacts"]:
            now = time.time()
            print(f"oldest:     {(now - stats['oldest_mtime']) / 3600:.1f}h "
                  f"ago")
            print(f"newest:     {(now - stats['newest_mtime']) / 3600:.1f}h "
                  f"ago")
        return 0
    if args.max_bytes is None and args.max_age is None:
        parser.error("prune needs --max-bytes and/or --max-age")
    max_bytes = (None if args.max_bytes is None
                 else _parse_size(args.max_bytes, parser))
    max_age = (None if args.max_age is None
               else _parse_age(args.max_age, parser))
    before = cache.stats()
    result = cache.prune(max_bytes=max_bytes, max_age_seconds=max_age)
    after = cache.stats()
    print(f"pruned {result['removed']} artifact(s), "
          f"{_human_bytes(result['removed_bytes'])} freed; "
          f"{after['artifacts']} of {before['artifacts']} remain "
          f"({_human_bytes(after['bytes'])})")
    return 0


def sweep_main(argv) -> int:
    """The ``satr sweep`` subcommand: manifest sweeps with reuse."""
    from repro.experiments import sweep
    from repro.policy import policy_names

    parser = argparse.ArgumentParser(
        prog="satr sweep",
        description=("Write one target's cells into a JSONL manifest "
                     "(header + one canonical payload line per cell, "
                     "plan order).  "
                     "--since reuses every cell whose config digest is "
                     "unchanged from a previous manifest, re-executing "
                     "only what changed."),
    )
    parser.add_argument("target",
                        help=f"one of: {', '.join(sorted(TARGETS))}")
    parser.add_argument("--scale", default="default",
                        choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--policy", default="baseline",
                        choices=policy_names())
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="manifest path (default: "
                             "sweep-<target>.jsonl)")
    parser.add_argument("--since", default=None, metavar="MANIFEST",
                        help="previous manifest to reuse unchanged cells "
                             "from (may be the output path itself; "
                             "silently ignored if absent)")
    parser.add_argument("--render", action="store_true",
                        help="also print the target's report from the "
                             "written manifest")
    _add_exec_args(parser)
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    plan = plan_target(args.target, scale, args.seed, args.policy)
    output = args.output or f"sweep-{args.target}.jsonl"
    since = args.since
    if since is not None and not os.path.exists(since):
        print(f"[satr] sweep: --since {since} not found; running "
              f"every cell", file=sys.stderr)
        since = None

    started = time.time()
    with _orchestrated(args) as (orchestrator, telemetry):
        result = sweep.run_sweep(args.target, plan.cells, orchestrator,
                                 output, scale.name, args.seed,
                                 policy=args.policy, since=since)
    elapsed = time.time() - started
    print(f"[satr] {result.render()} ({elapsed:.1f}s)", file=sys.stderr)
    if args.render:
        payloads = sweep.load_manifest_payloads(output)
        print(f"=== {args.target} (scale={scale.name}) ===")
        print(plan.render(payloads))
        print()
    print(telemetry.summary(), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "check":
        return check_main(argv[1:])
    if argv and argv[0] == "metrics":
        return metrics_main(argv[1:])
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv and argv[0] == "bench":
        return bench_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "loadgen":
        return loadgen_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="satr",
        description=("Shared Address Translation Revisited (EuroSys'16) — "
                     "regenerate the paper's tables and figures from the "
                     "simulation."),
    )
    parser.add_argument(
        "target",
        help=("one of: all, trace, check, metrics, compare, bench, "
              "serve, loadgen, sweep, cache, "
              f"{', '.join(sorted(TARGETS))}"),
    )
    parser.add_argument(
        "--scale", default="default", choices=sorted(SCALES),
        help="experiment sizing (quick ~seconds, paper ~many minutes)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"simulation seed fed to every cell (default: {DEFAULT_SEED})",
    )
    from repro.policy import policy_names

    parser.add_argument(
        "--policy", default="baseline", choices=policy_names(),
        help="translation policy for the experiment targets "
             "(default: baseline)",
    )
    _add_exec_args(parser)
    args = parser.parse_args(argv)
    if args.policy != "baseline":
        bad = [t for t in (ALL_GROUPS if args.target == "all"
                           else [args.target])
               if t not in POLICY_TARGETS]
        if bad:
            parser.error(
                f"--policy does not apply to {', '.join(bad)}; "
                f"policy-aware targets: "
                f"{', '.join(sorted(POLICY_TARGETS))}")
    scale = SCALES[args.scale]

    targets = ALL_GROUPS if args.target == "all" else [args.target]
    with _orchestrated(args) as (orchestrator, telemetry):
        ctx = RunContext(
            orchestrator=orchestrator,
            seed=args.seed,
            policy=args.policy,
        )
        for target in targets:
            started = time.time()
            report = run_target(target, scale, ctx)
            elapsed = time.time() - started
            print(f"[satr] {target}: {elapsed:.1f}s", file=sys.stderr)
            print(f"=== {target} (scale={scale.name}) ===")
            print(report)
            print()
    print(telemetry.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
