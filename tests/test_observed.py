"""Byte locks on every observed-run output (quick scale, seed 7).

``satr trace``, ``metrics``, ``compare`` and ``check`` drive the same
four workloads through one boot-and-drive path.  Each lock below is the
sha256 of one command's printed report (``stdout``) or of the file its
``-o`` wrote (``out``), so a refactor of that path must leave every
digest unchanged.  A deliberate change to a workload or an observer
re-records the affected digests here and says why in its change notes.

The bench lock is the gauge half of ``satr bench --compare``: each
target's sampled run must reproduce ``BENCH_metrics.json``'s sample
count and final gauges exactly.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.experiments import bench, runner
from repro.experiments.common import SCALES
from repro.metrics import Sampler, default_registry, flatten_values

REPO_ROOT = Path(__file__).resolve().parent.parent

#: name -> (subcommand, argv, {artefact: sha256}).  Later commands may
#: replay earlier ones' cells from the shared cache.
LOCKS = {
    "trace-fork": ("trace", ["fork", "--format", "jsonl"], {
        "stdout":
            "8eaa037b404132dc19b7ea6f39a329fb900c61591d1a152f218a9a13bd8a3f8e",
        "out":
            "d4823148e25707d32905cfafbe34eed1bc498de1ed93d85dd5374ca5d6ead6fc",
    }),
    "trace-ipc": ("trace", ["ipc", "--format", "jsonl"], {
        "stdout":
            "bb332c01c6d8851632105b86740edc8751ec426eaf3041ed7ecb8eab6c45ff1f",
        "out":
            "fc545d344c85392cbf0af768982720a55d30656a994093f95deba5eef88c4923",
    }),
    "metrics-fork-jsonl": ("metrics", ["fork", "--format", "jsonl"], {
        "out":
            "6f7ac2120060e5074bc7531f33ce18b1f8cd15b02c2822716491c9dec520647b",
    }),
    "metrics-fork-prom": ("metrics", ["fork", "--format", "prom"], {
        "out":
            "c39e7d401b26a8ea5f1f31a742dcd9c05bcec2c97951a603c84217a7a2f81aa7",
    }),
    "metrics-ipc-jsonl": ("metrics", ["ipc", "--format", "jsonl"], {
        "out":
            "93bae26e3dca746e37654dbc6a7cfddd9ad68331e45b198255c6da7e691d2ff1",
    }),
    "metrics-ipc-prom": ("metrics", ["ipc", "--format", "prom"], {
        "out":
            "0a9ad2ca551d987ce1ee9e82c8aaf26686bf4307e083289bbdb58d0f4a436ac4",
    }),
    "compare-fork": ("compare", ["--targets", "fork", "--policies",
                                 "baseline,victima"], {
        "stdout":
            "6fbc2c4262b89cda8e96a8eb662edc10a9bd4f79b44c7e00a2b2960521627067",
        "out":
            "4d09d5e69855c39ac58f749fcb1a7764447e5c6be164a535a43e6fdbdf259337",
    }),
    "check-fork": ("check", ["fork"], {
        "stdout":
            "f01ae1d052f663decf3a05c3f98acb59faf588691ead16073ac53c1fe7edff45",
    }),
    "check-launch": ("check", ["launch"], {
        "stdout":
            "4e4a1681822530eb54d81cf2699cfa148d47d807bc1b3c675d928a395288efce",
    }),
    "check-steady": ("check", ["steady"], {
        "stdout":
            "d62007688b4dd4f2cb76d1ea8d8fa91ced8274191514bf071d6f3297f03a87d8",
    }),
    "check-ipc": ("check", ["ipc"], {
        "stdout":
            "693ccf4f83d09b258dee2c66575bb1cac55a2da625bc0e0da9b7ab0f898752df",
    }),
}

BENCH_BASELINE = json.loads(
    (REPO_ROOT / "BENCH_metrics.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("observed-cache")


def _run(subcommand, argv, out, cache_dir):
    """Run one ``satr`` subcommand in-process; (exit code, artefacts)."""
    argv = list(argv) + ["--scale", "quick", "--seed", "7",
                         "--cache-dir", str(cache_dir)]
    if subcommand != "check":
        argv += ["-o", str(out)]
    stdout = io.StringIO()
    main = getattr(runner, f"{subcommand}_main")
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    artefacts = {"stdout": stdout.getvalue().encode("utf-8")}
    if out.exists():
        artefacts["out"] = out.read_bytes()
    return code, artefacts


@pytest.mark.slow
@pytest.mark.parametrize("name", list(LOCKS))
def test_output_bytes_locked(name, tmp_path, cache_dir):
    subcommand, argv, digests = LOCKS[name]
    code, artefacts = _run(subcommand, argv, tmp_path / "out", cache_dir)
    assert code == 0
    assert {artefact: hashlib.sha256(artefacts[artefact]).hexdigest()
            for artefact in digests} == digests


@pytest.mark.slow
@pytest.mark.parametrize("target", sorted(BENCH_BASELINE["targets"]))
def test_sampled_run_reproduces_bench_gauges(target):
    baseline = BENCH_BASELINE["targets"][target]
    _, sampler = bench._timed_run(
        target, SCALES[BENCH_BASELINE["scale"]], BENCH_BASELINE["seed"],
        lambda: Sampler(every_events=BENCH_BASELINE["every"]))
    assert len(sampler.samples) == baseline["samples"]
    assert flatten_values(default_registry(), sampler.final_values()) == (
        baseline["final_gauges"])
