"""The time-series sampler: a kernel lifecycle observer.

Attached like any observer — ``Kernel(config, observers=(sampler,))``
/ ``build_runtime(..., observers=...)``, runtime wiring deliberately
**never** a ``KernelConfig`` field, so the orchestrator's cache digests
are unaffected.  An unobserved kernel pays one empty-tuple check per
hook site.

Sampling cadence:

* every ``every_events`` executed access events (the engine calls
  :meth:`Sampler.on_event` per event), giving the steady time series;
* at every lifecycle boundary — fork, exit, exec, mmap, munmap,
  mprotect — via :meth:`Sampler.after_op`, so the series always has a
  point exactly where sharing state moves;
* once at workload end via :meth:`Sampler.finalize` (the observed-run
  path calls it), so the final gauges exist even for workloads shorter
  than one interval.

Each sample is a JSON-safe record ``{seq, time, site, events,
values}`` stamped with the kernel's simulated time and validated
against the registry schema at record time.
"""

from typing import Any, Dict, List

from repro.metrics.collect import collect, default_registry

#: Default access-event interval between time-series samples.
DEFAULT_SAMPLE_EVERY = 2000


class Sampler:
    """Snapshots the kernel's sharing gauges into a time series."""

    def __init__(self, every_events: int = DEFAULT_SAMPLE_EVERY,
                 registry=None) -> None:
        if (not isinstance(every_events, int)
                or isinstance(every_events, bool)):
            raise ValueError(
                f"every_events must be an integer, got {every_events!r}"
            )
        if every_events < 0:
            raise ValueError(
                f"every_events must be >= 0, got {every_events}"
            )
        #: 0 disables interval sampling (lifecycle boundaries only).
        self.every_events = every_events
        self.registry = registry if registry is not None else (
            default_registry()
        )
        self.samples: List[Dict[str, Any]] = []
        self._seq = 0
        self._events_seen = 0
        self._events_pending = 0

    # ------------------------------------------------------------------

    def on_event(self, kernel) -> None:
        """Count one access event; sample when the interval is due."""
        self._events_seen += 1
        self._events_pending += 1
        if self.every_events and self._events_pending >= self.every_events:
            self.sample(kernel, "interval")

    def after_op(self, kernel, site: str) -> None:
        """Sample at a lifecycle boundary (fork/exit/exec/VM syscalls)."""
        self.sample(kernel, site)

    def after_run(self, kernel) -> None:
        """No-op: run boundaries are not sampled."""

    def finalize(self, kernel) -> None:
        """The workload-end sample (the observed-run path calls this)."""
        self.sample(kernel, "final")

    def sample(self, kernel, site: str) -> None:
        """Record one snapshot now, tagged with its trigger site."""
        values = collect(kernel, self._events_seen)
        self.registry.validate(values)
        self.samples.append({
            "seq": self._seq,
            "time": kernel.sim_time(),
            "site": site,
            "events": self._events_seen,
            "values": values,
        })
        self._seq += 1
        self._events_pending = 0

    # ------------------------------------------------------------------

    @property
    def events_seen(self) -> int:
        """Access events observed over the sampler's lifetime."""
        return self._events_seen

    def final_values(self) -> Dict[str, Any]:
        """The last snapshot's values (empty dict when never sampled)."""
        return dict(self.samples[-1]["values"]) if self.samples else {}

