"""JSON config ingestion: strict schemas, loaders, frequency-grid expansion.

A run config references the network document by path (resolved relative to
the config file), carries the input process block, and optional
command-specific blocks: a frequency spec (an explicit list of vectors or
per-coordinate ranges expanded to their cartesian product), a u value, a u
list, a regime, and a simulation block.

The schemas below are the one statement of the format.  Every object in them
is built by _closed, so unknown keys are rejected everywhere.  The tables
INPUTS and JOBS are the one statement of each input and job kind and of its
fields: a kind's oneOf branch and the model model_from_dict builds both come
from its row, so a new kind is one more row.  _validated checks a document
against the schemas in-house and names the violation jsonschema's best_match
would; jsonschema is only the tests' oracle.
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


def _closed(required: dict, optional: dict = {}) -> dict:
    """An object schema with the given required and optional properties, in that order, and no others."""
    return {
        "type": "object",
        **({"required": list(required)} if required else {}),
        "additionalProperties": False,
        "properties": {**required, **optional},
    }


def _array(items: dict, min_items: int = 0) -> dict:
    return {"type": "array", **({"minItems": min_items} if min_items else {}), "items": items}


def _integer(least: int) -> dict:
    return {"type": "integer", "minimum": least}


def _kinds(table: dict) -> dict:
    """One closed branch per kind of table: its "kind" constant, then its fields."""
    return {"oneOf": [_closed({"kind": {"const": kind}, **fields}) for kind, (_, fields) in table.items()]}


def _built(table: dict, block: dict):
    """The object a schema-checked block of one of table's kinds stands for."""
    constructor, fields = table[block["kind"]]
    return constructor(*(block[name] for name in fields))


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

# Each kind maps to (constructor, fields): the fields are all required, listed in
# the order the constructor takes them, and each carries its schema.
JOBS = {
    "deterministic": (DeterministicJob, {"size": _NUMBER}),
    "exponential": (ExponentialJob, {"mu": _NUMBER}),
    "erlang": (ErlangJob, {"stages": _integer(1), "mu": _NUMBER}),
}
INPUTS = {
    "brownian": (Brownian, {"sigma2": _NUMBER}),
    "compound_poisson": (  # the job is built first, so a bad job is reported before a bad jump rate
        lambda lam, job: CompoundPoisson(lam, _built(JOBS, job)),
        {"lambda": _NUMBER, "job": _kinds(JOBS)},
    ),
    "centered_gamma": (CenteredGamma, {"shape": _NUMBER, "rate": _NUMBER}),
    "stable_sum": (
        lambda components: StableSum(tuple((c["alpha"], c["scale"]) for c in components)),
        {"components": _array(_closed({"alpha": _NUMBER, "scale": _NUMBER}), 1)},
    ),
}

NETWORK_SCHEMA = _closed(
    {
        "n": _integer(1),
        "edges": _array(_closed({"from": _integer(1), "to": _integer(1), "p": _NUMBER})),
        "rates": _array(_closed({"node": _integer(1), "terms": _array(_closed({"c": _NUMBER, "e": _NUMBER}), 1)}), 1),
    }
)

_GRID_AXIS = _closed({"start": _NUMBER, "stop": _NUMBER, "points": _integer(1)}, {"scale": {"enum": ["linear", "log"]}})
RUN_SCHEMA = _closed(
    {"network": {"type": "string"}, "input": _kinds(INPUTS)},
    {
        "omega": {"oneOf": [_closed({"list": _array(_array(_NUMBER), 1)}), _closed({"grid": _array(_GRID_AXIS, 1)})]},
        "u": _POSITIVE,
        "u_list": _array(_POSITIVE, 1),
        "regime": {"enum": ["light", "heavy"]},
        "sim": _closed({}, {"horizon": _POSITIVE, "n_rep": _integer(2), "seed": _integer(0), "n_workers": _integer(1)}),
    },
)

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
    try:
        return _built(INPUTS, block)
    except ValueError as exc:
        raise ConfigError(f"invalid input block: {exc}") from exc


def omega_vectors(block: dict, n: int) -> np.ndarray:
    """Expand a schema-checked frequency spec into a read-only grid of nonnegative vectors, one a row (shape (N, n))."""
    if "list" in block:
        for row in block["list"]:
            if len(row) != n:
                raise ConfigError(f"omega vector {row} must have length {n}")
            if any(x < 0.0 for x in row):
                raise ConfigError(f"omega vector {row} has negative entries")
        grid = np.array(block["list"], dtype=float)
    else:
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
        grid = np.array(list(itertools.product(*axes)))
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class RunConfig:
    spec: NetworkSpec
    model: LevyModel
    omegas: np.ndarray | None
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
    return RunConfig(
        spec=spec,
        model=model,
        omegas=omega_vectors(doc["omega"], spec.n) if "omega" in doc else None,
        u=doc.get("u"),
        u_list=tuple(doc["u_list"]) if "u_list" in doc else None,
        regime=doc.get("regime"),
        sim=dict(doc.get("sim", {})),
    )
