"""``satr sweep``: manifest-backed sweeps with cross-run reuse.

A sweep executes one target's cell plan through ``Orchestrator.run``
and writes every payload into a **manifest** — a JSONL file with one
header line followed by one canonical-JSON payload line per cell, in
plan order::

    {"kind":"satr-sweep","version":1,"target":...,"digests":[...]}
    {...payload for cell 0...}
    {...payload for cell 1...}

Because payload lines are canonical JSON produced from canonical cell
results, the manifest is byte-identical across the serial and
warm-worker executors — the sweep-shaped restatement of the
orchestrator's byte-identity contract.

Cross-run incremental invalidation: ``--since OLD_MANIFEST`` indexes a
previous sweep by cell digest and **reuses** every payload whose
digest still appears in the new plan — only cells whose config digest
changed (new scale, new seed, new policy, new code version) are
re-executed.  Reused payloads are copied from the old manifest's byte
offsets one line at a time, as the write reaches them.
"""

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.orchestrate import Cell, Orchestrator, canonical_json

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


@dataclass
class SweepResult:
    """What one sweep did; the manifest on disk is the real output."""

    manifest: str
    target: str
    total: int
    executed: int
    reused: int
    bytes_written: int

    def render(self) -> str:
        return (
            f"sweep {self.target}: {self.total} cells "
            f"({self.executed} executed, {self.reused} reused), "
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
    previous = ManifestIndex(since) if since is not None else None
    to_run = [index for index, digest in enumerate(digests)
              if previous is None or digest not in previous]
    fresh = dict(zip(to_run,
                     orchestrator.run([cells[index] for index in to_run])))

    header = sweep_header(target, scale_name, seed, policy, digests)
    tmp_path = manifest_path + ".tmp"
    directory = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(directory, exist_ok=True)
    with open(tmp_path, "w", encoding="utf-8") as handle:
        bytes_written = handle.write(canonical_json(header) + "\n")
        for index, digest in enumerate(digests):
            payload = (fresh[index] if index in fresh
                       else previous.payload_for(digest))
            bytes_written += handle.write(canonical_json(payload) + "\n")
    os.replace(tmp_path, manifest_path)
    return SweepResult(
        manifest=manifest_path, target=target, total=len(cells),
        executed=len(to_run), reused=len(cells) - len(to_run),
        bytes_written=bytes_written)


def load_manifest_payloads(path: str) -> List[Any]:
    """Every payload in plan order — O(n); for rendering small sweeps."""
    return list(ManifestIndex(path).payloads())
