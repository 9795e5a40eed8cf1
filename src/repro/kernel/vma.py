"""``vm_area_struct``: one contiguous memory region of an address space.

Beyond the stock fields (range, protection, flags, backing file), a VMA
carries two additions from the paper:

* ``global_`` — set by the kernel when the *zygote* maps the code
  segment of a shared library (Section 3.2.2); PTEs created inside such
  a region get the hardware global bit so their TLB entries are shared
  across all zygote-child processes;
* ``tag`` — an opaque label used by the analysis layer to classify
  instruction pages into the paper's categories (zygote-preloaded
  dynamic shared library, Java shared library, zygote binary,
  other dynamic shared library, private code).
"""

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.constants import PAGE_SIZE, page_number
from repro.common.errors import VmaError
from repro.common.perms import MapFlags, Prot
from repro.kernel.pagecache import FileObject


@dataclass
class Vma:
    """One memory region.  ``start`` inclusive, ``end`` exclusive."""

    start: int
    end: int
    prot: Prot
    flags: MapFlags
    file: Optional[FileObject] = None
    #: File offset of ``start``, in pages.
    file_page_offset: int = 0
    #: Paper (Section 3.2.2): region holds zygote-preloaded shared code
    #: whose translations may be shared through global TLB entries.
    global_: bool = False
    #: Region belongs to the zygote's preloaded shared code (drives the
    #: Table 4 "Copied PTEs" fork variant and the analysis breakdowns).
    zygote_preloaded: bool = False
    #: Opaque workload/analysis label (e.g. library + segment kind).
    tag: Any = None
    #: Virtual page numbers within this region whose pages have been
    #: COW-ed to anonymous frames (these PTEs cannot be refilled from
    #: the page cache, so stock fork must copy them).
    anon_pages: set = field(default_factory=set)
    #: Map this region with ARM 64KB large pages where possible
    #: (Section 2.3.3: sixteen consecutive, aligned level-2 entries;
    #: restricted to read-only file mappings, i.e. code).
    use_large_pages: bool = False

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise VmaError(
                f"region [{self.start:#x}, {self.end:#x}) not page aligned"
            )
        if self.end <= self.start:
            raise VmaError(f"empty region [{self.start:#x}, {self.end:#x})")
        if self.file is not None and self.flags.is_anonymous:
            raise VmaError("anonymous region cannot have a backing file")
        if self.file is None and not self.flags.is_anonymous:
            raise VmaError("file region needs a backing file")
        if self.use_large_pages:
            if self.file is None or self.prot.writable:
                raise VmaError(
                    "large pages are limited to read-only file mappings"
                )
            if self.start % (64 * 1024) or self.file_page_offset % 16:
                raise VmaError(
                    "large-page region must be 64KB aligned in VA and file"
                )

    # -- geometry --------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Region length in pages."""
        return (self.end - self.start) // PAGE_SIZE

    def contains(self, vaddr: int) -> bool:
        """True when the address falls inside the region."""
        return self.start <= vaddr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """True when [start, end) intersects the region."""
        return self.start < end and start < self.end

    def page_range(self):
        """Iterate the virtual page numbers of this region."""
        return range(page_number(self.start), page_number(self.end))

    # -- backing ---------------------------------------------------------------

    @property
    def is_file_backed(self) -> bool:
        """True for file mappings."""
        return self.file is not None

    @property
    def is_stack(self) -> bool:
        """True for GROWSDOWN (stack) regions."""
        return self.flags.is_growsdown

    def file_page_of(self, vaddr: int) -> int:
        """File page index backing ``vaddr``."""
        if self.file is None:
            raise VmaError("region is anonymous")
        return self.file_page_offset + (vaddr - self.start) // PAGE_SIZE

    # -- sharing-policy helpers -----------------------------------------------

    @property
    def is_private_writable(self) -> bool:
        """Private and writable: shareable only under the paper's
        aggressive policy (stock prior work excluded these)."""
        return self.flags.is_private and self.prot.writable

    def clone(self, **overrides) -> "Vma":
        """Copy, with field overrides (used by fork and VMA splitting)."""
        values = {
            "start": self.start,
            "end": self.end,
            "prot": self.prot,
            "flags": self.flags,
            "file": self.file,
            "file_page_offset": self.file_page_offset,
            "global_": self.global_,
            "zygote_preloaded": self.zygote_preloaded,
            "tag": self.tag,
            "anon_pages": set(self.anon_pages),
            "use_large_pages": self.use_large_pages,
        }
        values.update(overrides)
        return Vma(**values)

    def split_at(self, vaddr: int):
        """Split into two VMAs at a page-aligned internal address."""
        if vaddr % PAGE_SIZE:
            raise VmaError(f"split point {vaddr:#x} not page aligned")
        if not (self.start < vaddr < self.end):
            raise VmaError(
                f"split point {vaddr:#x} outside ({self.start:#x}, "
                f"{self.end:#x})"
            )
        split_vpn = page_number(vaddr)
        left = self.clone(
            end=vaddr,
            anon_pages={vpn for vpn in self.anon_pages if vpn < split_vpn},
        )
        right_offset = self.file_page_offset
        if self.file is not None:
            right_offset += (vaddr - self.start) // PAGE_SIZE
        right = self.clone(
            start=vaddr,
            file_page_offset=right_offset,
            anon_pages={vpn for vpn in self.anon_pages if vpn >= split_vpn},
        )
        return left, right

    def __repr__(self) -> str:
        backing = self.file.name if self.file else "anon"
        return (
            f"Vma([{self.start:#010x}, {self.end:#010x}) "
            f"{self.prot!r} {backing}{' G' if self.global_ else ''})"
        )
