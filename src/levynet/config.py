"""JSON config ingestion: strict schemas, loaders, frequency-grid expansion.

Unknown keys are rejected everywhere.  A run config references the network
document by path (resolved relative to the config file), carries the input
process block, and optional command-specific blocks: a frequency spec (an
explicit list of vectors or per-coordinate ranges expanded to their cartesian
product), a u value, a u list, a regime, and a simulation block.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema
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
        "horizon": {"type": "number"},
        "n_rep": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
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
        "u": {"type": "number"},
        "u_list": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "regime": {"enum": ["light", "heavy"]},
        "sim": SIM_SCHEMA,
    },
}

_SCHEMAS = {"network document": NETWORK_SCHEMA, "run config": RUN_SCHEMA}


@functools.cache
def _validator(what: str):
    """The validator for one of _SCHEMAS, its schema checked against the
    meta-schema once per process rather than on every document."""
    schema = _SCHEMAS[what]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validated(doc, what: str):
    """doc, or ConfigError naming the best-matching violation as jsonschema.validate would."""
    error = jsonschema.exceptions.best_match(_validator(what).iter_errors(doc))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(top level)"
        raise ConfigError(f"invalid {what} at {where}: {error.message}") from error
    return doc


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _within_float(token: str, parse=float):
    """A JSON number hook: parse(token), or ValueError where a float overflows."""
    if np.isinf(float(token)):
        raise ValueError(f"{token if len(token) <= 20 else token[:17] + '...'} overflows a float")
    return parse(token)


def _load_json(path: Path, what: str) -> dict:
    hooks = {"parse_float": _within_float, "parse_int": functools.partial(_within_float, parse=int)}
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant, **hooks)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
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
