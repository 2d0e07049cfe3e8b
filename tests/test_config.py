import copy
import functools
import hashlib
import json
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from levynet import config
from levynet.errors import ConfigError
from levynet.models import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    ExponentialJob,
    StableSum,
)

from conftest import CONFIGS

NETWORK = {
    "n": 2,
    "edges": [{"from": 1, "to": 2, "p": 1.0}],
    "rates": [
        {"node": 1, "terms": [{"c": 2, "e": 0}]},
        {"node": 2, "terms": [{"c": 1, "e": 0}]},
    ],
}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {**NETWORK, "edges": [{"from": 1, "to": 2, "p": "half"}]},
            "invalid network document at edges/0/p: 'half' is not of type 'number'",
        ),
        (
            {**NETWORK, "extra": True},
            "invalid network document at (top level): "
            "Additional properties are not allowed ('extra' was unexpected)",
        ),
    ],
)
def test_invalid_network_document_message(doc, message):
    with pytest.raises(ConfigError) as info:
        config.network_from_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"u": "fast"}, "invalid run config at u: 'fast' is not of type 'number'"),
        ({"sim": {"n_rep": 0}}, "invalid run config at sim/n_rep: 0 is less than the minimum of 2"),
        (
            {"sim": {"n_rep": 10, "step": 0.01}},
            "invalid run config at sim: Additional properties are not allowed ('step' was unexpected)",
        ),
        (
            {"input": {"kind": "brownian", "sigma2": "one"}},
            "invalid run config at input: {'kind': 'brownian', 'sigma2': 'one'} "
            "is not valid under any of the given schemas",
        ),
        (
            {"omega": {"list": [[0.5, "x"]]}},
            "invalid run config at omega/list/0/1: 'x' is not of type 'number'",
        ),
        ({"u": -1}, "invalid run config at u: -1 is less than or equal to the minimum of 0"),
        ({"u_list": [0, 10]}, "invalid run config at u_list/0: 0 is less than or equal to the minimum of 0"),
        (
            {"sim": {"horizon": -1}},
            "invalid run config at sim/horizon: -1 is less than or equal to the minimum of 0",
        ),
        ({"sim": {"seed": -1}}, "invalid run config at sim/seed: -1 is less than the minimum of 0"),
    ],
)
def test_invalid_run_config_message(tmp_path, overrides, message):
    (tmp_path / "net.json").write_text(json.dumps(NETWORK))
    run = {"network": "net.json", "input": {"kind": "brownian", "sigma2": 1.0}, **overrides}
    (tmp_path / "run.json").write_text(json.dumps(run))
    # twice: a load leaves nothing behind that changes the next one
    for _ in range(2):
        with pytest.raises(ConfigError) as info:
            config.load_run_config(tmp_path / "run.json")
        assert str(info.value) == message


def test_a_shipped_config_command_never_imports_jsonschema():
    """jsonschema is only the tests' oracle: a CLI process runs without it."""
    src = str(Path(config.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import os, sys; from levynet import cli; "
        f"code = cli.main(['lst-exact', '--config', {str(CONFIGS / 'figure1.run.json')!r}, '--out', os.devnull]); "
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'jsonschema'))"
    )
    shell = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert shell.stdout == "0 []\n", shell.stderr


KEYWORDS = {"type", "properties", "additionalProperties", "required", "minimum", "exclusiveMinimum"}
KEYWORDS |= {"items", "minItems", "enum", "const", "oneOf"}


@pytest.mark.parametrize("schema", [config.NETWORK_SCHEMA, config.RUN_SCHEMA], ids=["network", "run"])
def test_schemas_are_valid_json_schemas(schema):
    """Each schema passes the meta-schema, and uses only the keywords and forms
    the in-house validator reads: one type name, additionalProperties false,
    enum and const of strings."""
    Draft202012Validator.check_schema(schema)
    stack = [schema]
    while stack:
        sub = stack.pop()
        assert set(sub) <= KEYWORDS, sub
        assert isinstance(sub.get("type", ""), str) and sub.get("additionalProperties", False) is False, sub
        assert all(isinstance(v, str) for v in [*sub.get("enum", []), sub.get("const", "")]), sub
        stack += [*sub.get("properties", {}).values(), *sub.get("oneOf", []), *([sub["items"]] if "items" in sub else [])]


SCHEMA_DIGESTS = {
    "network": "62f51bb4447ad7c37e84b9eec7d049a7f19f0e104a0974494ed152a1ce0817f1",
    "run": "6678dae451b284f95050adae3b3b9ff03c94a6007b90b6a59fcd3e9080e3990f",
}


@pytest.mark.parametrize("name", SCHEMA_DIGESTS)
def test_schema_content_and_key_order_are_pinned(name):
    """The corpus test hands one document to both validators, so it cannot see
    a change of schema content or of keyword order, the order _walk reports in.
    A new config kind updates these digests on purpose."""
    schema = config.NETWORK_SCHEMA if name == "network" else config.RUN_SCHEMA
    assert hashlib.sha256(json.dumps(schema).encode()).hexdigest() == SCHEMA_DIGESTS[name]


# A run config for the integral-float cases: every integer field of both documents is set.
INTEGERS_RUN = {
    "network": "net.json",
    "input": {"kind": "compound_poisson", "lambda": 1.0, "job": {"kind": "erlang", "stages": 3, "mu": 4.0}},
    "omega": {"grid": [{"start": 0.1, "stop": 1.0, "points": 2}, {"start": 0.1, "stop": 1.0, "points": 2}]},
    "u": 1.0,
    "sim": {"n_rep": 100, "seed": 1},
}


@pytest.mark.parametrize(
    "what, path, value, message",
    [
        ("network document", ("n",), 2.0, None),
        ("network document", ("edges", 0, "from"), 1.0, None),
        ("network document", ("rates", 0, "node"), 1.0, None),
        ("run config", ("omega", "grid", 0, "points"), 5.0, None),
        ("run config", ("sim", "n_rep"), 100.0, None),
        ("run config", ("sim", "seed"), 1.0, None),
        # inside a oneOf, best_match names the job block: every job kind fails there
        (
            "run config",
            ("input", "job", "stages"),
            3.0,
            "invalid run config at input/job: {'kind': 'erlang', 'stages': 3.0, 'mu': 4.0} "
            "is not valid under any of the given schemas",
        ),
    ],
)
def test_an_integral_float_is_not_an_integer(tmp_path, capsys, what, path, value, message):
    """2.0 once passed the schema, and then crashed a loader with a TypeError (exit 1) or read as node 1."""
    from levynet import cli

    docs = {"network document": copy.deepcopy(NETWORK), "run config": copy.deepcopy(INTEGERS_RUN)}
    for name, doc in zip(("net.json", "run.json"), docs.values()):
        (tmp_path / name).write_text(json.dumps(doc))
    argv = ["lst-exact", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    *parents, last = path
    functools.reduce(operator.getitem, parents, docs[what])[last] = value
    (tmp_path / ("net.json" if what == "network document" else "run.json")).write_text(json.dumps(docs[what]))
    assert cli.main(argv) == 2
    message = message or f"invalid {what} at {'/'.join(map(str, path))}: {value!r} is not of type 'integer'"
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message}


# The mutation corpus: each document is a shipped one, or a run config with
# one of the input kinds, changed in one to three random places.
INPUT_KINDS = [
    {"kind": "brownian", "sigma2": 1.0},
    {"kind": "compound_poisson", "lambda": 1.0, "job": {"kind": "deterministic", "size": 1.0}},
    {"kind": "compound_poisson", "lambda": 2.0, "job": {"kind": "exponential", "mu": 4.0}},
    {"kind": "compound_poisson", "lambda": 1.0, "job": {"kind": "erlang", "stages": 3, "mu": 4.0}},
    {"kind": "centered_gamma", "shape": 2.0, "rate": 1.0},
    {"kind": "stable_sum", "components": [{"alpha": 1.5, "scale": 0.5}, {"alpha": 2, "scale": 0.4}]},
]
VALUES = [
    0, 1, -1, 2, 0.0, 2.0, 0.5, -0.5, True, False, None, "x", "log", "heavy", "brownian", "erlang",
    [], [0.5], [[1, 0.5]], {}, {"kind": "brownian"}, {"c": 1, "e": 0}, {"start": 0.1, "stop": 1, "points": 2},
]
KEYS = ["extra", "step", "kind", "mu", "sigma2", "job", "list", "grid", "scale", "c", "e", "p", "node", "terms"]


def _mutated(doc, rng: random.Random):
    """doc, deep-copied, with a random node replaced, or a key or element removed or added."""
    holder = [copy.deepcopy(doc)]
    for _ in range(rng.randint(1, 3)):
        slots, stack = [], [holder]
        while stack:  # every (container, key) pair of the document, the root's included
            node = stack.pop()
            for key in node if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    stack.append(node[key])
        container, key = rng.choice(slots)
        target, op = container[key], rng.randrange(4)
        if op == 0 or not isinstance(target, (dict, list)) or not target:
            container[key] = copy.deepcopy(rng.choice(VALUES))
        elif op == 1:
            del target[rng.choice(list(target) if isinstance(target, dict) else range(len(target)))]
        elif isinstance(target, dict):
            target[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES + [target]))
        else:
            target.append(copy.deepcopy(rng.choice(VALUES + target)))
    return holder[0]


def _oracle_message(oracle, doc, what):
    error = best_match(oracle.iter_errors(doc))
    if error is None:
        return None, None
    where = "/".join(str(p) for p in error.absolute_path) or "(top level)"
    return error.validator, f"invalid {what} at {where}: {error.message}"


@pytest.mark.parametrize("what", ["network document", "run config"])
def test_the_validator_picks_the_error_jsonschema_does(what):
    """On a seeded corpus of mutated documents, the in-house validator and
    jsonschema's best_match, with an int-only integer, agree in verdict,
    path and message; the corpus reaches every keyword the schemas use."""
    schema = config.NETWORK_SCHEMA if what == "network document" else config.RUN_SCHEMA
    integer_only = Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    )
    oracle = jsonschema.validators.extend(Draft202012Validator, type_checker=integer_only)(schema)
    shipped = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob(f"*.{what.split()[0]}.json"))]
    if what == "run config":
        shipped += [dict(shipped[0], input=block, sim={"horizon": 10.0, "n_rep": 100, "seed": 0, "n_workers": 1}) for block in INPUT_KINDS]
    rng = random.Random(36)
    keywords = Counter()
    for doc in shipped + [_mutated(rng.choice(shipped), rng) for _ in range(5000)]:
        keyword, expected = _oracle_message(oracle, doc, what)
        keywords[keyword] += 1
        try:
            config._validated(doc, what)
            got = None
        except ConfigError as exc:
            got = str(exc)
        assert got == expected, doc
    # properties and items only descend; a const error always ties with
    # another branch's at the same kind, so best_match never picks one
    picked = {"type", "additionalProperties", "required", "minimum", "minItems"}
    picked |= {"exclusiveMinimum", "enum", "oneOf"} if what == "run config" else set()
    assert set(keywords) - {None} == picked
    assert keywords[None] >= len(shipped)


@pytest.mark.parametrize(
    "block, model",
    zip(
        INPUT_KINDS,
        [
            Brownian(1.0),
            CompoundPoisson(1.0, DeterministicJob(1.0)),
            CompoundPoisson(2.0, ExponentialJob(4.0)),
            CompoundPoisson(1.0, ErlangJob(3, 4.0)),
            CenteredGamma(2.0, 1.0),
            StableSum(((1.5, 0.5), (2, 0.4))),
        ],
    ),
    ids=[block.get("job", block)["kind"] for block in INPUT_KINDS],
)
def test_every_input_kind_builds_the_model_its_constructor_does(block, model):
    assert config.model_from_dict(block) == model


@pytest.mark.parametrize(
    "block, message",
    [
        ({"kind": "brownian", "sigma2": 0.0}, "variance sigma2 must be positive and finite, got 0.0"),
        (
            {"kind": "compound_poisson", "lambda": 1.0, "job": {"kind": "deterministic", "size": 0.0}},
            "job size must be positive and finite, got 0.0",
        ),
        (
            {"kind": "compound_poisson", "lambda": 1.0, "job": {"kind": "exponential", "mu": -1.0}},
            "job rate mu must be positive and finite, got -1.0",
        ),
        # a bad job is reported before a bad jump rate
        (
            {"kind": "compound_poisson", "lambda": 0.0, "job": {"kind": "erlang", "stages": 3, "mu": 0.0}},
            "job rate mu must be positive and finite, got 0.0",
        ),
        ({"kind": "centered_gamma", "shape": 2.0, "rate": -1.0}, "gamma rate must be positive and finite, got -1.0"),
        (
            {"kind": "stable_sum", "components": [{"alpha": 2.5, "scale": 0.5}]},
            "stable index must lie in (1, 2], got 2.5",
        ),
    ],
    ids=["brownian", "deterministic", "exponential", "erlang", "centered_gamma", "stable_sum"],
)
def test_an_out_of_range_parameter_is_an_input_block_error(block, message):
    """The schema admits any number; the kind's constructor refuses, and its message is kept."""
    with pytest.raises(ConfigError) as info:
        config.model_from_dict(block)
    assert str(info.value) == f"invalid input block: {message}"


def test_the_corpus_has_a_block_of_every_kind():
    """A kind added to the tables without a corpus block fails here, so the corpus test always reaches it."""
    assert {block["kind"] for block in INPUT_KINDS} == set(config.INPUTS)
    assert {block["job"]["kind"] for block in INPUT_KINDS if "job" in block} == set(config.JOBS)


@pytest.mark.parametrize(
    "run_text",
    [
        '"u": NaN, "input": {"kind": "brownian", "sigma2": 1.0}',
        '"u": 4.0, "input": {"kind": "brownian", "sigma2": NaN}',
        '"u": 4.0, "input": {"kind": "brownian", "sigma2": 1.0}, "omega": {"list": [[0.5, Infinity]]}',
    ],
)
def test_non_standard_json_constants_rejected(tmp_path, capsys, run_text):
    _assert_config_error(tmp_path, capsys, run_text, "is not a JSON number")


@pytest.mark.parametrize(
    "run_text",
    [
        '"u": 4.0, "input": {"kind": "brownian", "sigma2": 1e400}',
        '"u": 1e400, "input": {"kind": "brownian", "sigma2": 1.0}',
        '"u": ' + "1" * 401 + ', "input": {"kind": "brownian", "sigma2": 1.0}',
        '"u": 4.0, "input": {"kind": "brownian", "sigma2": 1.0}, "omega": {"list": [[0.5, -1e400]]}',
    ],
    ids=["sigma2 1e400", "u 1e400", "u with 401 digits", "omega -1e400"],
)
def test_numbers_beyond_the_float_range_rejected(tmp_path, capsys, run_text):
    """Read as inf (or, for a long integer, an OverflowError later), they
    exit 2 with a ConfigError like the non-standard constants."""
    _assert_config_error(tmp_path, capsys, run_text, "overflows a float")


def test_a_network_number_beyond_the_float_range_is_rejected(tmp_path, capsys):
    """A rate exponent of 1e400 in the network document: the run config
    that names it exits 2 with the network file's ConfigError."""
    from levynet import cli

    net = tmp_path / "net.json"
    net.write_text(json.dumps(NETWORK).replace('"e": 0}', '"e": 1e400}', 1))
    with pytest.raises(ConfigError, match=r"network file .*net\.json is not valid JSON: 1e400 overflows a float"):
        config.load_network(net)
    path = tmp_path / "run.json"
    path.write_text('{"network": "net.json", "u": 4.0, "input": {"kind": "brownian", "sigma2": 1.0}}')
    assert cli.main(["lst-exact", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "1e400 overflows a float" in err["message"]


def _assert_config_error(tmp_path, capsys, run_text, message):
    from levynet import cli

    (tmp_path / "net.json").write_text(json.dumps(NETWORK))
    path = tmp_path / "run.json"
    path.write_text('{"network": "net.json", ' + run_text + "}")
    with pytest.raises(ConfigError, match=message) as info:
        config.load_run_config(path)
    assert str(path) in str(info.value)
    assert cli.main(["lst-exact", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_the_omega_block_is_one_read_only_grid():
    # a list keeps its rows; a grid range block is the cartesian product, omega_1 major
    for name, width in (("figure1.run.json", 6), ("tandem2_brownian.run.json", 2)):
        omegas = config.load_run_config(CONFIGS / name).omegas
        assert omegas.ndim == 2 and omegas.shape[1] == width and not omegas.flags.writeable
    axis = np.logspace(np.log10(0.1), np.log10(2.0), 5)
    grid = config.load_run_config(CONFIGS / "tandem2_brownian.run.json").omegas
    assert np.array_equal(grid, [[a, b] for a in axis for b in axis])
    listed = config.omega_vectors({"list": [[0, 0.5], [1, 2]]}, 2)
    assert listed.tolist() == [[0.0, 0.5], [1.0, 2.0]] and not listed.flags.writeable
