"""The distrib wire format: length-prefixed canonical-JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 canonical JSON (sorted keys, no spaces — the same
:func:`repro.orchestrate.canonical_json` the cache digests use).  The
format is deliberately dumb: any byte stream works, and the one in use
is a worker's stdin/stdout pipe pair.

Canonical JSON on the wire is load-bearing for the byte-identity
contract: a payload computed in a warm worker arrives in the parent
with sorted key order, exactly like a payload canonicalised in-process
or replayed from the cache, so reports merge byte-identically no
matter which executor produced each cell.

Frame vocabulary (``type`` field):

==========  ===============  ========================================
type        direction        meaning
==========  ===============  ========================================
hello       worker->parent   the worker is up: its pid and version
run         parent->worker   execute one cell (``id``, ``cell``)
result      worker->parent   the cell's payload + elapsed, same ``id``
error       worker->parent   kind: exception (the cell raised) or
                             protocol (a frame it did not understand)
==========  ===============  ========================================
"""

import json
import struct
from typing import Any, BinaryIO, Optional

from repro.orchestrate.cells import canonical_json

#: Hard cap on one frame; a longer length prefix means a corrupt or
#: hostile stream, not a real payload.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER = struct.Struct("!I")


class ProtocolError(RuntimeError):
    """The byte stream does not carry well-formed frames."""


def write_frame(stream: BinaryIO, obj: Any) -> None:
    """Serialise one frame (canonical JSON) and flush it."""
    data = canonical_json(obj).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    stream.write(_HEADER.pack(len(data)) + data)
    stream.flush()


def read_frame(stream: BinaryIO) -> Optional[Any]:
    """The next frame, or None on a clean end-of-stream.

    An end-of-stream in the *middle* of a frame is a
    :class:`ProtocolError` — the peer died mid-write, which callers
    must treat as a crash, not a polite goodbye.
    """
    header = _read_exact(stream, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    body = _read_exact(stream, length)
    if body is None:
        raise ProtocolError("stream ended inside a frame body")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame body is not JSON: {exc}") from None


def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Exactly ``count`` bytes, None on immediate EOF, error mid-way."""
    if count == 0:
        return b""
    chunks = []
    got = 0
    while got < count:
        chunk = stream.read(count - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"stream ended after {got} of {count} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
