"""JSON config ingestion: strict schemas, loaders, frequency-grid expansion.

Unknown keys are rejected everywhere.  A run config references the network
document by path (resolved relative to the config file), carries the input
process block, and optional command-specific blocks: a frequency spec (an
explicit list of vectors or per-coordinate ranges expanded to their cartesian
product), a u value, a u list, a regime, and a simulation block.

The schemas below are the one statement of the format.  _validated checks a
document against them in-house and names the violation jsonschema's
best_match would; jsonschema is only the tests' oracle.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .models import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    ExponentialJob,
    LevyModel,
    StableSum,
)
from .network import NetworkSpec, RateFunction, RoutingMatrix, build_network

NETWORK_SCHEMA = {
    "type": "object",
    "required": ["n", "edges", "rates"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["from", "to", "p"],
                "additionalProperties": False,
                "properties": {
                    "from": {"type": "integer", "minimum": 1},
                    "to": {"type": "integer", "minimum": 1},
                    "p": {"type": "number"},
                },
            },
        },
        "rates": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["node", "terms"],
                "additionalProperties": False,
                "properties": {
                    "node": {"type": "integer", "minimum": 1},
                    "terms": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["c", "e"],
                            "additionalProperties": False,
                            "properties": {
                                "c": {"type": "number"},
                                "e": {"type": "number"},
                            },
                        },
                    },
                },
            },
        },
    },
}

_JOB_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "required": ["kind", "size"],
            "additionalProperties": False,
            "properties": {"kind": {"const": "deterministic"}, "size": {"type": "number"}},
        },
        {
            "type": "object",
            "required": ["kind", "mu"],
            "additionalProperties": False,
            "properties": {"kind": {"const": "exponential"}, "mu": {"type": "number"}},
        },
        {
            "type": "object",
            "required": ["kind", "stages", "mu"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "erlang"},
                "stages": {"type": "integer", "minimum": 1},
                "mu": {"type": "number"},
            },
        },
    ]
}

INPUT_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "required": ["kind", "sigma2"],
            "additionalProperties": False,
            "properties": {"kind": {"const": "brownian"}, "sigma2": {"type": "number"}},
        },
        {
            "type": "object",
            "required": ["kind", "lambda", "job"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "compound_poisson"},
                "lambda": {"type": "number"},
                "job": _JOB_SCHEMA,
            },
        },
        {
            "type": "object",
            "required": ["kind", "shape", "rate"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "centered_gamma"},
                "shape": {"type": "number"},
                "rate": {"type": "number"},
            },
        },
        {
            "type": "object",
            "required": ["kind", "components"],
            "additionalProperties": False,
            "properties": {
                "kind": {"const": "stable_sum"},
                "components": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["alpha", "scale"],
                        "additionalProperties": False,
                        "properties": {
                            "alpha": {"type": "number"},
                            "scale": {"type": "number"},
                        },
                    },
                },
            },
        },
    ]
}

OMEGA_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "required": ["list"],
            "additionalProperties": False,
            "properties": {
                "list": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": {"type": "number"}},
                }
            },
        },
        {
            "type": "object",
            "required": ["grid"],
            "additionalProperties": False,
            "properties": {
                "grid": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["start", "stop", "points"],
                        "additionalProperties": False,
                        "properties": {
                            "start": {"type": "number"},
                            "stop": {"type": "number"},
                            "points": {"type": "integer", "minimum": 1},
                            "scale": {"enum": ["linear", "log"]},
                        },
                    },
                }
            },
        },
    ]
}

SIM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "n_rep": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "n_workers": {"type": "integer", "minimum": 1},
    },
}

RUN_SCHEMA = {
    "type": "object",
    "required": ["network", "input"],
    "additionalProperties": False,
    "properties": {
        "network": {"type": "string"},
        "input": INPUT_SCHEMA,
        "omega": OMEGA_SCHEMA,
        "u": {"type": "number", "exclusiveMinimum": 0},
        "u_list": {"type": "array", "minItems": 1, "items": {"type": "number", "exclusiveMinimum": 0}},
        "regime": {"enum": ["light", "heavy"]},
        "sim": SIM_SCHEMA,
    },
}

_SCHEMAS = {"network document": NETWORK_SCHEMA, "run config": RUN_SCHEMA}

# JSON Schema's types.  An integer is an int, so 2.0 is no node number, count or seed;
# int and float come first because numbers.Number's abstract-class check is slow.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float, numbers.Number), "integer": int}


def _is(doc, kind: str) -> bool:
    return isinstance(doc, _TYPES[kind]) and not isinstance(doc, bool)


class _Error(NamedTuple):
    """One violation: its path below the instance the enclosing oneOf checks
    (the document at top level), the keyword, the message, the instance and
    schema it was found at, and, for a oneOf no branch passes, every branch's."""

    path: tuple
    keyword: str
    message: str
    instance: object
    schema: dict
    context: tuple = ()

    def relevance(self) -> tuple:
        """jsonschema's sort key: deeper, then earlier, then not oneOf, then off the schema's own type."""
        kind = self.schema.get("type")
        return (-len(self.path), self.path, self.keyword != "oneOf", kind is None or not _is(self.instance, kind))


def _walk(doc, schema: dict, path: tuple, out: list) -> list:
    """out, with doc's violations of schema appended in jsonschema's order:
    keyword by keyword as the schema lists them, properties in its order.
    It reads the keywords of the schemas above, each as they use it: one
    type name, additionalProperties false, enum and const of strings."""
    for key, value in schema.items():
        message, context = None, ()
        if key == "type":
            if not _is(doc, value):
                message = f"{doc!r} is not of type {value!r}"
        elif key == "properties" and isinstance(doc, dict):
            for name, sub in value.items():
                if name in doc:
                    _walk(doc[name], sub, (*path, name), out)
        elif key == "items" and isinstance(doc, list):
            for index, item in enumerate(doc):
                _walk(item, value, (*path, index), out)
        elif key == "required" and isinstance(doc, dict):
            for name in value:
                if name not in doc:
                    out.append(_Error(path, key, f"{name!r} is a required property", doc, schema))
        elif key == "additionalProperties" and not value and isinstance(doc, dict):
            if extras := sorted(doc.keys() - schema.get("properties", {}).keys(), key=str):
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"
        elif key == "minimum" and _is(doc, "number") and doc < value:
            message = f"{doc!r} is less than the minimum of {value!r}"
        elif key == "exclusiveMinimum" and _is(doc, "number") and doc <= value:
            message = f"{doc!r} is less than or equal to the minimum of {value!r}"
        elif key == "minItems" and isinstance(doc, list) and len(doc) < value:
            message = f"{doc!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "enum" and doc not in value:
            message = f"{doc!r} is not one of {value!r}"
        elif key == "const" and doc != value:
            message = f"{value!r} was expected"
        elif key == "oneOf":
            branches = [_walk(doc, sub, (), []) for sub in value]
            valid = [sub for sub, errors in zip(value, branches) if not errors]
            if not valid:
                message = f"{doc!r} is not valid under any of the given schemas"
                context = tuple(e for errors in branches for e in errors)
            elif len(valid) > 1:  # named as jsonschema does: the later branches, then the first
                message = f"{doc!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"
        if message:
            out.append(_Error(path, key, message, doc, schema, context))
    return out


def _validated(doc, what: str):
    """doc, or ConfigError naming the violation jsonschema 4.26's best_match
    picks: the most relevant, then down its oneOf context to the least
    relevant there while that is unique."""
    best = max(_walk(doc, _SCHEMAS[what], (), []), key=_Error.relevance, default=None)
    if best is None:
        return doc
    path = best.path
    while best.context:
        first, *second = sorted(best.context, key=_Error.relevance)[:2]
        if second and first.relevance() == second[0].relevance():
            break
        best, path = first, path + first.path
    raise ConfigError(f"invalid {what} at {'/'.join(map(str, path)) or '(top level)'}: {best.message}")


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _overflows(token: str) -> ValueError:
    return ValueError(f"{token if len(token) <= 20 else token[:17] + '...'} overflows a float")


def _parse_float(token: str) -> float:
    """The JSON float hook: float(token), or ValueError where it overflows."""
    if math.isinf(value := float(token)):
        raise _overflows(token)
    return value


def _parse_int(token: str) -> int:
    """The JSON integer hook: int(token), or ValueError where its float overflows."""
    if math.isinf(float(token)):
        raise _overflows(token)
    return int(token)


def _load_json(path: Path, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_parse_float, parse_int=_parse_int, parse_constant=_reject_constant)
    except OSError as exc:  # missing, a directory, no permission, ...
        raise ConfigError(f"{what} file {path} cannot be read: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def network_from_dict(doc: dict) -> NetworkSpec:
    _validated(doc, "network document")
    n = doc["n"]
    edges = [(e["from"], e["to"], e["p"]) for e in doc["edges"]]
    routing = RoutingMatrix.from_edges(n, edges)
    seen: dict[int, RateFunction] = {}
    for entry in doc["rates"]:
        node = entry["node"]
        if not 1 <= node <= n:
            raise ConfigError(f"rate entry references node {node} outside 1..{n}")
        if node in seen:
            raise ConfigError(f"duplicate rate entry for node {node}")
        try:
            seen[node] = RateFunction(tuple((t["c"], t["e"]) for t in entry["terms"]))
        except ValueError as exc:
            raise ConfigError(f"invalid rate for node {node}: {exc}") from exc
    missing = [j for j in range(1, n + 1) if j not in seen]
    if missing:
        raise ConfigError(f"missing rate entries for nodes {missing}")
    return build_network(routing, [seen[j] for j in range(1, n + 1)])


def load_network(path) -> NetworkSpec:
    return network_from_dict(_load_json(Path(path), "network"))


def model_from_dict(block: dict) -> LevyModel:
    """The input process of a run config's input block, already schema-checked."""
    kind = block["kind"]
    try:
        if kind == "brownian":
            return Brownian(block["sigma2"])
        if kind == "centered_gamma":
            return CenteredGamma(block["shape"], block["rate"])
        if kind == "stable_sum":
            return StableSum(tuple((c["alpha"], c["scale"]) for c in block["components"]))
        job_block = block["job"]
        if job_block["kind"] == "deterministic":
            job = DeterministicJob(job_block["size"])
        elif job_block["kind"] == "exponential":
            job = ExponentialJob(job_block["mu"])
        else:
            job = ErlangJob(job_block["stages"], job_block["mu"])
        return CompoundPoisson(block["lambda"], job)
    except ValueError as exc:
        raise ConfigError(f"invalid input block: {exc}") from exc


def omega_vectors(block: dict, n: int) -> list[np.ndarray]:
    """Expand a schema-checked frequency spec into explicit nonnegative vectors of length n."""
    if "list" in block:
        out = []
        for row in block["list"]:
            if len(row) != n:
                raise ConfigError(f"omega vector {row} must have length {n}")
            w = np.asarray(row, dtype=float)
            if np.any(w < 0.0):
                raise ConfigError(f"omega vector {row} has negative entries")
            out.append(w)
        return out
    axes = []
    if len(block["grid"]) != n:
        raise ConfigError(f"omega grid needs one range per coordinate ({n}), got {len(block['grid'])}")
    for coord in block["grid"]:
        scale = coord.get("scale", "linear")
        start, stop, points = coord["start"], coord["stop"], coord["points"]
        if start < 0.0 or stop < start:
            raise ConfigError(f"invalid omega range [{start}, {stop}]")
        if scale == "log":
            if start <= 0.0:
                raise ConfigError("log-spaced omega ranges need start > 0")
            axes.append(np.logspace(np.log10(start), np.log10(stop), points))
        else:
            axes.append(np.linspace(start, stop, points))
    return [np.array(combo) for combo in itertools.product(*axes)]


@dataclass(frozen=True)
class RunConfig:
    spec: NetworkSpec
    model: LevyModel
    omegas: tuple[np.ndarray, ...] | None
    u: float | None
    u_list: tuple[float, ...] | None
    regime: str | None
    sim: dict


def load_run_config(path) -> RunConfig:
    path = Path(path)
    doc = _validated(_load_json(path, "run config"), "run config")
    network_path = Path(doc["network"])
    if not network_path.is_absolute():
        network_path = path.parent / network_path
    spec = load_network(network_path)
    model = model_from_dict(doc["input"])
    omegas = None
    if "omega" in doc:
        omegas = tuple(omega_vectors(doc["omega"], spec.n))
    return RunConfig(
        spec=spec,
        model=model,
        omegas=omegas,
        u=doc.get("u"),
        u_list=tuple(doc["u_list"]) if "u_list" in doc else None,
        regime=doc.get("regime"),
        sim=dict(doc.get("sim", {})),
    )
