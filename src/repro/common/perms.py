"""Protection and mapping flags, mirroring the POSIX/Linux constants.

The predicates test a member's integer value directly: ``self & flag``
would go through ``Flag.__and__`` and build a new member, and the
fault handler and fork ask these questions once per page.
"""

import enum


class Prot(enum.IntFlag):
    """Memory protection bits (``PROT_*``)."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4

    @property
    def readable(self) -> bool:
        """True when PROT_READ is set."""
        return bool(self._value_ & _READ)

    @property
    def writable(self) -> bool:
        """True when PROT_WRITE is set."""
        return bool(self._value_ & _WRITE)

    @property
    def executable(self) -> bool:
        """True when PROT_EXEC is set."""
        return bool(self._value_ & _EXEC)


# The members' integer values, which the predicates test; read here
# once, so a predicate does no enum-class lookup.
_READ = Prot.READ.value
_WRITE = Prot.WRITE.value
_EXEC = Prot.EXEC.value

#: Conventional shorthands used throughout the Android layer.
PROT_RX = Prot.READ | Prot.EXEC
PROT_RW = Prot.READ | Prot.WRITE
PROT_R = Prot.READ


class MapFlags(enum.IntFlag):
    """Mapping flags (``MAP_*``)."""

    PRIVATE = 1
    SHARED = 2
    ANONYMOUS = 4
    FIXED = 8
    GROWSDOWN = 16  # Stack regions.

    @property
    def is_private(self) -> bool:
        """True for MAP_PRIVATE mappings."""
        return bool(self._value_ & _PRIVATE)

    @property
    def is_shared(self) -> bool:
        """True for MAP_SHARED mappings."""
        return bool(self._value_ & _SHARED)

    @property
    def is_anonymous(self) -> bool:
        """True for MAP_ANONYMOUS mappings."""
        return bool(self._value_ & _ANONYMOUS)

    @property
    def is_growsdown(self) -> bool:
        """True for MAP_GROWSDOWN (stack) mappings."""
        return bool(self._value_ & _GROWSDOWN)


# As for Prot above.
_PRIVATE = MapFlags.PRIVATE.value
_SHARED = MapFlags.SHARED.value
_ANONYMOUS = MapFlags.ANONYMOUS.value
_GROWSDOWN = MapFlags.GROWSDOWN.value
