"""One warm worker: import ``repro`` once, then loop on cell frames.

Started as ``python -m repro.distrib.worker`` by
:class:`~repro.distrib.local.LocalWorkers`, the only writer of its
stdin.  The worker claims the real stdout for the frame stream and
points fd 1 at stderr, so a stray ``print`` inside a cell function
lands on the command's stderr instead of corrupting a frame.

The loop is strictly request/reply: the parent sends one ``run``
frame and the worker answers with exactly one ``result`` or ``error``
frame, so the parent can wait on the pipe with a plain select.  End
of stdin ends the worker.  A cell exception is an *answer* (``kind:
exception``), not a crash; the parent re-executes such cells
in-process so the exception surfaces exactly as a serial run would
raise it.
"""

import os
import sys
import time
import traceback
from typing import BinaryIO

from repro import __version__
from repro.distrib.protocol import ProtocolError, read_frame, write_frame
from repro.orchestrate.cells import execute_cell


def serve(inp: BinaryIO, out: BinaryIO) -> int:
    """The worker loop: hello, then answer frames until end of input."""
    write_frame(out, {"type": "hello", "pid": os.getpid(),
                      "version": __version__})
    while True:
        try:
            frame = read_frame(inp)
        except ProtocolError:
            return 1
        if frame is None:
            return 0
        kind = frame.get("type") if isinstance(frame, dict) else None
        if kind == "run":
            started = time.perf_counter()
            try:
                payload = execute_cell(frame["cell"])
            except BaseException as exc:  # noqa: BLE001 — answered, not fatal
                write_frame(out, {
                    "type": "error",
                    "id": frame.get("id"),
                    "kind": "exception",
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                })
            else:
                write_frame(out, {
                    "type": "result",
                    "id": frame.get("id"),
                    "payload": payload,
                    "elapsed": time.perf_counter() - started,
                })
            continue
        write_frame(out, {"type": "error", "id": frame.get("id"),
                          "kind": "protocol",
                          "error": f"unknown frame type {kind!r}"})


def main() -> int:
    """Entry point: hijack stdout for frames, then serve."""
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    # Anything the simulation prints must not interleave with frames:
    # fd 1 now aliases stderr, and sys.stdout follows it.
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.stdout = sys.stderr
    inp = os.fdopen(os.dup(sys.stdin.fileno()), "rb")
    try:
        return serve(inp, out)
    except (BrokenPipeError, KeyboardInterrupt):
        return 0


if __name__ == "__main__":
    sys.exit(main())
