"""``satr sweep``: manifest-backed streaming sweeps with cross-run reuse.

A sweep executes one target's cell plan through
``Orchestrator.run_iter`` and streams every payload straight into a
**manifest** — a JSONL file with one header line followed by one
canonical-JSON payload line per cell, in plan order::

    {"kind":"satr-sweep","version":1,"target":...,"digests":[...]}
    {...payload for cell 0...}
    {...payload for cell 1...}

Payloads are written (and dropped) as the in-order fold reaches them,
so a serial 10,000-cell sweep holds O(1) payloads resident no matter
how large the plan is; a parallel one also holds the payloads that
finished ahead of the fold's cursor (``repro.orchestrate.stream``).
Because payload lines are canonical JSON produced from canonical cell
results, the manifest is byte-identical across the serial and
warm-worker executors — the sweep-shaped restatement of the
orchestrator's byte-identity contract.

Cross-run incremental invalidation: ``--since OLD_MANIFEST`` indexes a
previous sweep by cell digest and **reuses** every payload whose
digest still appears in the new plan — only cells whose config digest
changed (new scale, new seed, new policy, new code version) are
re-executed.  Reused payloads are copied lazily, one line at a time,
from the old manifest's byte offsets, so reuse adds no resident
payloads.
"""

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.orchestrate import (
    Cell,
    FoldStats,
    Orchestrator,
    canonical_json,
    fold_ordered,
)

MANIFEST_KIND = "satr-sweep"
MANIFEST_VERSION = 1


class ManifestError(ValueError):
    """The file is not a readable sweep manifest."""


class ManifestIndex:
    """Byte-offset index over one manifest: lazy per-cell payloads."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.offsets: List[Tuple[int, int]] = []  # (offset, length)
        try:
            with open(path, "rb") as handle:
                header_line = handle.readline()
                offset = handle.tell()
                for line in handle:
                    self.offsets.append((offset, len(line)))
                    offset += len(line)
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path}: {exc}") \
                from None
        try:
            self.header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ManifestError(f"{path} has no manifest header") from None
        if (not isinstance(self.header, dict)
                or self.header.get("kind") != MANIFEST_KIND):
            raise ManifestError(f"{path} is not a {MANIFEST_KIND} manifest")
        if self.header.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"{path} is manifest version {self.header.get('version')}, "
                f"this build reads {MANIFEST_VERSION}")
        self.digests: List[str] = list(self.header.get("digests", []))
        if len(self.digests) != len(self.offsets):
            raise ManifestError(
                f"{path} names {len(self.digests)} digests but holds "
                f"{len(self.offsets)} payload lines (truncated write?)")
        self._by_digest = {digest: position
                          for position, digest in enumerate(self.digests)}

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_digest

    def payload_for(self, digest: str) -> Any:
        """Load one payload line (seek + read — nothing else resident)."""
        offset, length = self.offsets[self._by_digest[digest]]
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            line = handle.read(length)
        try:
            return json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ManifestError(
                f"corrupt payload line in {self.path}: {exc}") from None

    def payloads(self) -> Iterator[Any]:
        """Every payload, in plan order, one at a time."""
        for digest in self.digests:
            yield self.payload_for(digest)


class ReuseView:
    """``fold_ordered``'s ``available``: plan index -> old payload.

    Membership is decided up front from digests (cheap); the payload
    bytes load only when the fold's cursor arrives at the index.
    """

    def __init__(self, manifest: ManifestIndex,
                 plan_digests: List[str]) -> None:
        self.manifest = manifest
        self._digest_at = {index: digest
                           for index, digest in enumerate(plan_digests)
                           if digest in manifest}

    def __contains__(self, index: int) -> bool:
        return index in self._digest_at

    def __getitem__(self, index: int) -> Any:
        return self.manifest.payload_for(self._digest_at[index])

    def __len__(self) -> int:
        return len(self._digest_at)


@dataclass
class SweepResult:
    """What one sweep did; the manifest on disk is the real output."""

    manifest: str
    target: str
    total: int
    executed: int
    reused: int
    bytes_written: int
    stats: FoldStats

    def render(self) -> str:
        return (
            f"sweep {self.target}: {self.total} cells "
            f"({self.executed} executed, {self.reused} reused), "
            f"peak buffered {self.stats.peak_buffered}, "
            f"{self.bytes_written} bytes -> {self.manifest}"
        )


def sweep_header(target: str, scale_name: str, seed: int, policy: str,
                 digests: List[str]) -> Dict[str, Any]:
    """The manifest's first line (deterministic — no timestamps)."""
    return {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "target": target,
        "scale": scale_name,
        "seed": seed,
        "policy": policy,
        "cells": len(digests),
        "digests": digests,
    }


def run_sweep(target: str, cells: List[Cell], orchestrator: Orchestrator,
              manifest_path: str, scale_name: str, seed: int,
              policy: str = "baseline",
              since: Optional[str] = None) -> SweepResult:
    """Execute one plan into a manifest, reusing unchanged cells.

    The write is atomic (temp file + ``os.replace``), so ``--since``
    pointed at the output path itself is safe: the old manifest stays
    readable for lazy reuse until the new one fully lands.
    """
    digests = [cell.digest() for cell in cells]
    reuse: Optional[ReuseView] = None
    if since is not None:
        reuse = ReuseView(ManifestIndex(since), digests)

    if reuse is not None and len(reuse) > 0:
        to_run = [index for index in range(len(cells))
                  if index not in reuse]
    else:
        to_run = list(range(len(cells)))
    subset = [cells[index] for index in to_run]

    def reindexed() -> Iterator[Tuple[int, Any]]:
        for sub_index, payload in orchestrator.run_iter(subset):
            yield to_run[sub_index], payload

    stats = FoldStats()
    header = sweep_header(target, scale_name, seed, policy, digests)
    tmp_path = manifest_path + ".tmp"
    directory = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(directory, exist_ok=True)
    bytes_written = 0
    with open(tmp_path, "w", encoding="utf-8") as handle:
        bytes_written += handle.write(canonical_json(header) + "\n")

        def fold(acc: int, index: int, payload: Any) -> int:
            # The payload's whole residency: one canonical line, written
            # and forgotten.
            return acc + handle.write(canonical_json(payload) + "\n")

        bytes_written = fold_ordered(
            reindexed(), fold, bytes_written, total=len(cells),
            available=reuse, stats=stats)
    os.replace(tmp_path, manifest_path)
    return SweepResult(
        manifest=manifest_path, target=target, total=len(cells),
        executed=len(to_run), reused=stats.reused,
        bytes_written=bytes_written, stats=stats)


def load_manifest_payloads(path: str) -> List[Any]:
    """Every payload in plan order — O(n); for rendering small sweeps."""
    return list(ManifestIndex(path).payloads())
