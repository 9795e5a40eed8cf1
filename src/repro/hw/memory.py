"""Physical memory: frame allocation and per-frame metadata.

The simulator never stores page *contents* — only metadata.  What matters
for the paper's mechanisms is identity (two processes mapping the same
frame share cache lines and TLB payloads) and the per-frame ``mapcount``,
which the paper reuses as the sharer count for shared page-table pages
("we utilize the existing mapcount field of the PTP's page structure",
Section 3.1.1).
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.constants import PAGE_SIZE
from repro.common.errors import OutOfMemoryError, SimulationError


class FrameKind(enum.Enum):
    """What a physical frame is being used for."""

    ANON = "anon"  # Anonymous memory (heap, stack, COW copies).
    FILE = "file"  # Page-cache frame backing a file page.
    PTP = "ptp"  # A page-table page.
    KERNEL = "kernel"  # Kernel text/data.

    # Members are singletons, so identity hashing is exact; it keeps the
    # per-allocation ``by_kind`` update in C (Enum.__hash__ is Python).
    __hash__ = object.__hash__


class Frame:
    """Metadata for one 4KB physical frame.

    A plain ``__slots__`` class rather than a dataclass: a runtime
    holds ~15,000 frames, and a slotted frame is smaller and pickles as
    one tuple into the boot image (DESIGN.md §17).  Frames compare by
    identity, as they always have in use: a PFN is never reused.
    """

    __slots__ = ("pfn", "kind", "mapcount", "file_key")

    def __init__(self, pfn: int, kind: FrameKind, mapcount: int = 0,
                 file_key: Optional[tuple] = None) -> None:
        self.pfn = pfn
        self.kind = kind
        #: Number of address spaces mapping this frame.  For PTP frames
        #: this is the sharer count used by the COW page-table-sharing
        #: protocol.
        self.mapcount = mapcount
        #: Identity of the backing file page, for page-cache frames.
        self.file_key = file_key

    def __reduce__(self):
        return Frame, (self.pfn, self.kind, self.mapcount, self.file_key)

    def __repr__(self) -> str:
        return (f"Frame(pfn={self.pfn!r}, kind={self.kind!r}, "
                f"mapcount={self.mapcount!r}, file_key={self.file_key!r})")

    @property
    def paddr(self) -> int:
        """Base physical address of the frame."""
        return self.pfn * PAGE_SIZE

    def get(self) -> "Frame":
        """Take a mapping reference."""
        self.mapcount += 1
        return self

    def put(self) -> int:
        """Drop a mapping reference; returns the remaining count."""
        if self.mapcount <= 0:
            raise SimulationError(f"frame {self.pfn} mapcount underflow")
        self.mapcount -= 1
        return self.mapcount


@dataclass
class MemoryStats:
    """Aggregate allocation statistics."""

    allocated: int = 0
    freed: int = 0
    peak_in_use: int = 0
    by_kind: Dict[FrameKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in FrameKind}
    )

    @property
    def in_use(self) -> int:
        """Frames currently allocated."""
        return self.allocated - self.freed


class PhysicalMemory:
    """A simple frame allocator over a fixed pool.

    Frames are never recycled into different PFNs during a run, so a PFN
    observed in a TLB entry or cache tag always refers to the same frame
    object — which keeps the identity-based sharing arguments sound.
    """

    def __init__(self, total_frames: int = 1 << 20) -> None:
        # Default pool: 4GB worth of frames, far beyond any scenario here.
        self.total_frames = total_frames
        #: The next fresh PFN (PFN 0 is reserved as "null").  A plain
        #: int: ``itertools.count`` stops pickling in Python 3.14.
        self._next_pfn = 1
        self._frames: Dict[int, Frame] = {}
        self.stats = MemoryStats()

    def allocate(self, kind: FrameKind, file_key: Optional[tuple] = None) -> Frame:
        """Allocate a frame of the given kind (mapcount starts at 0)."""
        if self.stats.in_use >= self.total_frames:
            raise OutOfMemoryError(
                f"physical memory exhausted ({self.total_frames} frames)"
            )
        pfn = self._next_pfn
        self._next_pfn += 1
        frame = Frame(pfn=pfn, kind=kind, file_key=file_key)
        self._frames[pfn] = frame
        self.stats.allocated += 1
        self.stats.by_kind[kind] += 1
        self.stats.peak_in_use = max(self.stats.peak_in_use, self.stats.in_use)
        return frame

    def allocate_contiguous(self, count: int, kind: FrameKind,
                            file_keys: Optional[list] = None) -> list:
        """Allocate ``count`` frames with consecutive PFNs.

        Needed for ARM 64KB large pages, whose sixteen 4KB frames must
        be physically contiguous so one TLB entry can map the span.
        """
        if file_keys is not None and len(file_keys) != count:
            raise SimulationError("file_keys length mismatch")
        return [
            self.allocate(kind,
                          file_keys[index] if file_keys else None)
            for index in range(count)
        ]

    def free(self, frame: Frame) -> None:
        """Return a frame to the pool.  The frame must be unmapped."""
        if frame.mapcount != 0:
            raise SimulationError(
                f"freeing frame {frame.pfn} with mapcount {frame.mapcount}"
            )
        if frame.pfn not in self._frames:
            raise SimulationError(f"double free of frame {frame.pfn}")
        del self._frames[frame.pfn]
        self.stats.freed += 1
        self.stats.by_kind[frame.kind] -= 1

    def frame(self, pfn: int) -> Frame:
        """Look up a live frame by PFN."""
        try:
            return self._frames[pfn]
        except KeyError:
            raise SimulationError(f"no live frame with pfn {pfn}") from None

    def iter_frames(self, kind: Optional[FrameKind] = None):
        """Iterate live frames, optionally restricted to one kind."""
        for frame in self._frames.values():
            if kind is None or frame.kind == kind:
                yield frame

    def live_frames(self, kind: Optional[FrameKind] = None) -> int:
        """Count live frames, optionally restricted to one kind."""
        if kind is None:
            return len(self._frames)
        return sum(1 for f in self._frames.values() if f.kind == kind)
