import json

import jsonschema
import pytest

from levynet import config
from levynet.errors import ConfigError

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
        ({"sim": {"n_rep": 0}}, "invalid run config at sim/n_rep: 0 is less than the minimum of 1"),
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
    # twice: the second load reuses the compiled validators
    for _ in range(2):
        with pytest.raises(ConfigError) as info:
            config.load_run_config(tmp_path / "run.json")
        assert str(info.value) == message


def test_schemas_checked_once(monkeypatch):
    calls = []
    original = jsonschema.validators.validator_for

    def counted(schema, *args, **kwargs):
        calls.append(schema)
        return original(schema, *args, **kwargs)

    monkeypatch.setattr(jsonschema.validators, "validator_for", counted)
    config._validator.cache_clear()
    try:
        for _ in range(3):
            config.network_from_dict(NETWORK)
        assert sum(schema is config.NETWORK_SCHEMA for schema in calls) == 1
    finally:
        config._validator.cache_clear()


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
