"""Cells: the deterministic unit of experiment execution.

A **cell** is one seeded, self-contained simulation — e.g. all launch
rounds of one kernel configuration, or one (ASID x kernel) binder
sweep.  Experiments decompose into a list of cells plus a pure
**merge** step, which lets the orchestrator run cells serially, on
warm worker processes, or straight out of the on-disk result cache,
with a byte-identical final report in every case.

Design rules that make this work:

* A cell's function is referenced by *dotted path* (``module:function``)
  rather than by object, so cells travel as plain JSON to worker
  processes that import them fresh, and hash stably into cache keys.
* Cell parameters are plain JSON values (the ``Scale`` dataclass is
  flattened by ``scale_to_params``, field by field, before it enters a
  cell).
* A cell function returns a JSON-serialisable payload; the orchestrator
  canonicalises every payload through one JSON round trip, so a result
  that came from the cache is indistinguishable from a fresh one.
* The cache digest covers the package version, the experiment/cell
  identity, the full parameter set (scale + seed included) and the
  kernel-configuration fields, so any change to any of them misses.
"""

import dataclasses
import enum
import functools
import gc
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro import __version__


def canonical_json(value: Any) -> str:
    """Deterministic JSON text for hashing (sorted keys, no spaces)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonicalize(payload: Any) -> Any:
    """One JSON round trip: tuples become lists, keys become strings.

    Applied to every cell payload so cache hits and fresh runs hand the
    merge step structurally identical values.  Keys are sorted because
    cache artifacts are stored with ``sort_keys=True``: a replayed
    payload has sorted dict order, so a fresh payload must too, or
    exports that serialise payload dicts verbatim would differ
    byte-wise between cold and warm runs.
    """
    return json.loads(json.dumps(payload, sort_keys=True))


def jsonable(value: Any) -> Any:
    """Flatten dataclasses/enums into plain JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


#: Flattened configurations held by ``(name, overrides)``: planning
#: every target at every scale under every policy asks for 44.  They
#: are held for the life of the process, so a factory in
#: ``CONFIG_FACTORIES`` must not change once it has been flattened.
CONFIG_FIELDS_HELD = 64


def kernel_config_fields(config_name: str, **overrides) -> Dict[str, Any]:
    """The flattened `KernelConfig` fields for one named configuration.

    These go into the cell digest so editing any policy knob (or adding
    a new field) invalidates every cached result built under it.  The
    fields depend only on the name and the overrides, so each pair is
    flattened once; every caller gets a dict of its own.
    """
    return dict(_config_fields(config_name,
                               tuple(sorted(overrides.items()))))


@functools.lru_cache(maxsize=CONFIG_FIELDS_HELD)
def _config_fields(config_name: str, overrides: tuple) -> Dict[str, Any]:
    from repro.experiments.common import CONFIG_FACTORIES, CONFIG_FIELD_NAMES

    config = CONFIG_FACTORIES[config_name]()
    if overrides:
        config = config.with_(**dict(overrides))
    # Every field is a plain value or an enum, so this equals
    # ``jsonable(config)`` without its per-value reflection.
    flat = {}
    for name in CONFIG_FIELD_NAMES:
        value = getattr(config, name)
        flat[name] = value.value if isinstance(value, enum.Enum) else value
    if flat["policy"] == "baseline":
        # The default translation policy is omitted so digests of
        # configurations that predate the field are unchanged (cached
        # baseline results stay valid); any other policy enters the
        # digest and keys its own cache entries.
        del flat["policy"]
    flat["name"] = config_name
    return flat


@dataclass(frozen=True)
class Cell:
    """One deterministic simulation unit.

    ``fn`` names a module-level callable as ``package.module:function``;
    it receives ``params`` (a JSON-safe dict) and returns a JSON-safe
    payload.  ``config_fields`` carries the kernel-configuration knobs
    the cell runs under, purely for cache-key purposes (the function
    reads the configuration name out of ``params`` itself).
    """

    experiment: str
    cell_id: str
    fn: str
    params: Dict[str, Any] = field(default_factory=dict)
    config_fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Display name, e.g. ``launch/Stock Android``."""
        return f"{self.experiment}/{self.cell_id}"

    def digest(self) -> str:
        """Content address: version + identity + params + config.

        Hashed once per cell object (a cell's inputs never change after
        it is built), so a plan that is run again reuses its digests.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            key = {
                "version": __version__,
                "experiment": self.experiment,
                "cell_id": self.cell_id,
                "fn": self.fn,
                "params": self.params,
                "config_fields": self.config_fields,
            }
            digest = hashlib.sha256(
                canonical_json(key).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest

    def to_dict(self) -> Dict[str, Any]:
        """A picklable/JSON-safe description (what workers receive)."""
        return {
            "experiment": self.experiment,
            "cell_id": self.cell_id,
            "fn": self.fn,
            "params": self.params,
            "config_fields": self.config_fields,
        }


def resolve_cell_fn(path: str) -> Callable[[Dict[str, Any]], Any]:
    """Import ``package.module:function`` and return the callable."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"cell fn must look like 'package.module:function', got {path!r}"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ValueError(f"{module_name} has no cell function {attr!r}") from None


def execute_cell(cell_dict: Dict[str, Any]) -> Any:
    """Run one cell description and return its canonicalised payload.

    Module-level (and driven purely by a plain dict) so a warm worker
    can execute a cell that arrived as a JSON frame.

    A runtime is a cyclic object graph, so it outlives its cell until a
    full collection, which runs after every cell.  A boot's allocation
    churn triggers one on its own, but a runtime restored from the boot
    image (``build_runtime``) allocates in one go: without the explicit
    collection the previous cell's runtime would still be resident
    alongside it.
    """
    fn = resolve_cell_fn(cell_dict["fn"])
    payload = canonicalize(fn(cell_dict["params"]))
    gc.collect()
    return payload
