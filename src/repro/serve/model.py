"""The ``satr serve`` request model and its JSON-schema validation.

A scenario request is one small JSON object::

    {"target": "fork", "scale": "quick", "seed": 7,
     "policy": "victima", "jobs": 1, "no_cache": false, "wait": true}

``validate_schema`` is a dependency-free validator for the JSON-schema
subset the server needs (object/string/integer/boolean types,
``properties``/``required``/``additionalProperties``, ``enum``,
``minimum``/``maximum``); it returns *every* problem, so a client sees
one complete 400 body instead of a fix-resubmit loop.

:class:`RunRequest` is the normalized, hashable form.  Its ``key()``
covers exactly the fields that determine the run's *result and cache
behaviour* (target, scale, policy, seed, no_cache) — not execution
details like ``jobs`` or ``wait`` — so two requests that must produce
byte-identical reports coalesce onto one in-flight execution.
"""

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from repro.experiments.common import DEFAULT_SEED, SCALES
from repro.orchestrate import canonical_json
from repro.policy import policy_names

#: The scenario targets the daemon serves (each is one `satr` group).
SERVE_TARGETS = ("fork", "launch", "steady", "ipc")

#: The scale a request gets when it names none.  ``quick`` — a server
#: should default to the sizing that answers in seconds; paper-scale
#: runs are an explicit opt-in.
DEFAULT_SCALE = "quick"

#: Upper bound on per-run worker processes a request may ask for.
MAX_JOBS = 8


class RequestError(ValueError):
    """A request failed schema validation; ``problems`` lists why."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def validate_schema(value: Any, schema: Dict[str, Any],
                    path: str = "$") -> List[str]:
    """Validate ``value`` against a JSON-schema subset; returns problems.

    Supported keywords: ``type`` (object / string / integer / number /
    boolean), ``properties``, ``required``, ``additionalProperties``
    (False), ``enum``, ``minimum``, ``maximum``.  An empty list means
    the value conforms.
    """
    problems: List[str] = []
    expected = schema.get("type")
    if expected == "object":
        if not isinstance(value, dict):
            return [f"{path}: expected an object, got "
                    f"{type(value).__name__}"]
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                problems.append(f"{path}.{name}: required field missing")
        if schema.get("additionalProperties") is False:
            for name in sorted(set(value) - set(properties)):
                problems.append(f"{path}.{name}: unknown field")
        for name, subschema in properties.items():
            if name in value:
                problems.extend(
                    validate_schema(value[name], subschema,
                                    f"{path}.{name}"))
        return problems
    if expected == "string" and not isinstance(value, str):
        return [f"{path}: expected a string, got {type(value).__name__}"]
    if expected == "boolean" and not isinstance(value, bool):
        return [f"{path}: expected a boolean, got {type(value).__name__}"]
    if expected == "integer" and (isinstance(value, bool)
                                  or not isinstance(value, int)):
        return [f"{path}: expected an integer, got {type(value).__name__}"]
    if expected == "number" and (isinstance(value, bool)
                                 or not isinstance(value, (int, float))):
        return [f"{path}: expected a number, got {type(value).__name__}"]
    if "enum" in schema and value not in schema["enum"]:
        problems.append(
            f"{path}: {value!r} not one of {sorted(schema['enum'])}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        problems.append(f"{path}: {value!r} below minimum "
                        f"{schema['minimum']}")
    if "maximum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value > schema["maximum"]:
        problems.append(f"{path}: {value!r} above maximum "
                        f"{schema['maximum']}")
    return problems


def request_schema(
        targets: Sequence[str] = SERVE_TARGETS) -> Dict[str, Any]:
    """The ``POST /run`` body schema for one set of served targets."""
    return {
        "type": "object",
        "required": ["target"],
        "additionalProperties": False,
        "properties": {
            "target": {"type": "string", "enum": sorted(targets)},
            "scale": {"type": "string", "enum": sorted(SCALES)},
            "policy": {"type": "string", "enum": sorted(policy_names())},
            "seed": {"type": "integer", "minimum": 0},
            "jobs": {"type": "integer", "minimum": 1, "maximum": MAX_JOBS},
            "no_cache": {"type": "boolean"},
            "wait": {"type": "boolean"},
        },
    }


@dataclass(frozen=True)
class RunRequest:
    """One normalized scenario request."""

    target: str
    scale: str = DEFAULT_SCALE
    policy: str = "baseline"
    seed: int = DEFAULT_SEED
    jobs: int = 1
    no_cache: bool = False
    wait: bool = True

    @classmethod
    def from_json(cls, value: Any,
                  targets: Sequence[str] = SERVE_TARGETS) -> "RunRequest":
        """Validate a decoded JSON body; raises :class:`RequestError`."""
        problems = validate_schema(value, request_schema(targets))
        if problems:
            raise RequestError(problems)
        return cls(
            target=value["target"],
            scale=value.get("scale", DEFAULT_SCALE),
            policy=value.get("policy", "baseline"),
            seed=value.get("seed", DEFAULT_SEED),
            jobs=value.get("jobs", 1),
            no_cache=value.get("no_cache", False),
            wait=value.get("wait", True),
        )

    def key(self) -> str:
        """The coalescing key: result-determining fields only."""
        semantic = {
            "target": self.target,
            "scale": self.scale,
            "policy": self.policy,
            "seed": self.seed,
            "no_cache": self.no_cache,
        }
        return hashlib.sha256(
            canonical_json(semantic).encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, Any]:
        """The JSON-safe echo of the request (responses carry it)."""
        return {
            "target": self.target,
            "scale": self.scale,
            "policy": self.policy,
            "seed": self.seed,
            "jobs": self.jobs,
            "no_cache": self.no_cache,
        }


def parse_run_request(body: bytes,
                      targets: Sequence[str] = SERVE_TARGETS,
                      max_body: int = 64 * 1024) -> RunRequest:
    """Decode + validate a raw ``POST /run`` body."""
    import json

    if len(body) > max_body:
        raise RequestError([f"$: body exceeds {max_body} bytes"])
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise RequestError(["$: body is not valid JSON"]) from None
    return RunRequest.from_json(decoded, targets)
