"""Files and the page cache.

File-backed pages are physically shared: the first access anywhere in
the system fills a page-cache frame, and every later mapping — by any
process — reuses it.  This is the baseline sharing that *already* exists
in stock kernels; the paper's point is that the *translations* to these
shared frames were not shared, and this module is where that asymmetry
becomes visible in the model.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.constants import PAGE_SIZE
from repro.common.errors import AddressError
from repro.hw.memory import Frame, FrameKind, PhysicalMemory


@dataclass(frozen=True)
class FileObject:
    """An immutable description of a mappable file (library, APK, ...)."""

    file_id: int
    name: str
    size_pages: int

    @property
    def size_bytes(self) -> int:
        """File size in bytes."""
        return self.size_pages * PAGE_SIZE


class PageCache:
    """(file, page index) -> physical frame, filled on demand."""

    def __init__(self, memory: PhysicalMemory) -> None:
        self._memory = memory
        self._frames: Dict[Tuple[int, int], Frame] = {}
        self._next_file_id = 1
        self.fills = 0
        self.hits = 0

    def create_file(self, name: str, size_pages: int) -> FileObject:
        """Register a new mappable file."""
        file_id = self._next_file_id
        self._next_file_id += 1
        return FileObject(file_id=file_id, name=name, size_pages=size_pages)

    def get_page(self, file: FileObject, page_index: int) -> Tuple[Frame, bool]:
        """Return ``(frame, was_cold)`` for one file page.

        ``was_cold`` is True when the page had to be read in (charged
        the cold-fault premium by the fault handler).
        """
        if not 0 <= page_index < file.size_pages:
            raise AddressError(
                f"page {page_index} outside {file.name} "
                f"({file.size_pages} pages)"
            )
        key = (file.file_id, page_index)
        frame = self._frames.get(key)
        if frame is not None:
            self.hits += 1
            return frame, False
        frame = self._memory.allocate(FrameKind.FILE, file_key=key)
        self._frames[key] = frame
        self.fills += 1
        return frame, True

    def get_chunk(self, file: FileObject, first_page: int,
                  count: int) -> Tuple[list, bool]:
        """Fill a physically *contiguous* run of file pages.

        Used for ARM 64KB large pages: sixteen consecutive file pages
        get sixteen consecutive frames so a single TLB entry can map
        them.  Returns ``(frames, was_cold)``; falls back to ``None``
        frames when any page of the chunk is already cached
        non-contiguously (the caller then maps 4KB pages instead).
        """
        keys = [(file.file_id, first_page + index)
                for index in range(count)]
        existing = [self._frames.get(key) for key in keys]
        if all(frame is not None for frame in existing):
            base = existing[0].pfn
            if all(frame.pfn == base + index
                   for index, frame in enumerate(existing)):
                self.hits += count
                return existing, False
            return [], False  # Cached, but fragmented: no large page.
        if any(frame is not None for frame in existing):
            return [], False  # Partially cached: no large page.
        frames = self._memory.allocate_contiguous(
            count, FrameKind.FILE, file_keys=keys
        )
        for key, frame in zip(keys, frames):
            self._frames[key] = frame
        self.fills += count
        return frames, True

    def lookup(self, file: FileObject, page_index: int) -> Optional[Frame]:
        """Probe without filling."""
        return self._frames.get((file.file_id, page_index))

    def contents(self) -> list:
        """Sorted ``(file_id, page_index)`` keys of every resident page.

        The semantic pagecache state: which pages are resident, not which
        frames hold them (frame numbers are an allocation artifact).
        """
        return sorted(self._frames)

    def resident_pages(self, file: FileObject) -> int:
        """Cached pages of one file."""
        return sum(1 for (fid, _) in self._frames if fid == file.file_id)

    @property
    def resident_total(self) -> int:
        """Cached pages across all files."""
        return len(self._frames)
