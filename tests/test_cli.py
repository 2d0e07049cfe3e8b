import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from levynet import Brownian, cli, joint_lst_exact, load_network
from levynet.cli import main

from conftest import random_spec

FIGURE1_NETWORK = {
    "n": 6,
    "edges": [
        {"from": 1, "to": 2, "p": 0.5},
        {"from": 1, "to": 5, "p": 0.5},
        {"from": 2, "to": 3, "p": 1 / 3},
        {"from": 2, "to": 4, "p": 1 / 3},
        {"from": 2, "to": 6, "p": 1 / 3},
    ],
    "rates": [
        {"node": 1, "terms": [{"c": 10, "e": 2}]},
        {"node": 2, "terms": [{"c": 4, "e": 2}]},
        {"node": 3, "terms": [{"c": 1, "e": 2}]},
        {"node": 4, "terms": [{"c": 2, "e": 1}]},
        {"node": 5, "terms": [{"c": 4, "e": 1}]},
        {"node": 6, "terms": [{"c": 1, "e": 1}]},
    ],
}

TANDEM_NETWORK = {
    "n": 2,
    "edges": [{"from": 1, "to": 2, "p": 1.0}],
    "rates": [
        {"node": 1, "terms": [{"c": 2, "e": 0}]},
        {"node": 2, "terms": [{"c": 1, "e": 0}]},
    ],
}


def write_configs(tmp_path: Path, network: dict, run_overrides: dict) -> Path:
    net_path = tmp_path / "network.json"
    net_path.write_text(json.dumps(network))
    run = {"network": "network.json", "input": {"kind": "brownian", "sigma2": 1.0}}
    run.update(run_overrides)
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run))
    return run_path


def run_cli(args):
    return main(args)


def test_validate_figure1_passes(tmp_path, capsys):
    cfg = write_configs(tmp_path, FIGURE1_NETWORK, {})
    assert run_cli(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["passed"] is True
    assert "verdict: pass" in out.err


def test_validate_two_parent_column_exits_2(tmp_path, capsys):
    bad = json.loads(json.dumps(TANDEM_NETWORK))
    bad["n"] = 3
    bad["edges"] = [
        {"from": 1, "to": 3, "p": 0.5},
        {"from": 2, "to": 3, "p": 0.5},
        {"from": 1, "to": 2, "p": 0.5},
    ]
    bad["rates"].append({"node": 3, "terms": [{"c": 0.5, "e": 0}]})
    cfg = write_configs(tmp_path, bad, {})
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StructuralError"


def test_validate_rate_inversion_exits_1(tmp_path, capsys):
    bad = json.loads(json.dumps(TANDEM_NETWORK))
    bad["rates"] = [
        {"node": 1, "terms": [{"c": 1, "e": 1}]},
        {"node": 2, "terms": [{"c": 2, "e": 1}]},
    ]
    cfg = write_configs(tmp_path, bad, {})
    assert run_cli(["validate", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_configs(tmp_path, TANDEM_NETWORK, {"surprise": 1})
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_unknown_network_key_rejected(tmp_path, capsys):
    bad = json.loads(json.dumps(TANDEM_NETWORK))
    bad["extra"] = True
    cfg = write_configs(tmp_path, bad, {})
    assert run_cli(["validate", "--config", str(cfg)]) == 2


def test_structure_figure1_listing(tmp_path, capsys):
    cfg = write_configs(tmp_path, FIGURE1_NETWORK, {})
    assert run_cli(["structure", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["phat"] == [1.0, 0.5, 1 / 6, 1 / 6, 0.5, 1 / 6]
    assert doc["classes"] == [[1, 2, 3], [4, 5, 6]]
    assert doc["fractions"] == [1.0, 0.4, 0.1, 0.5, 1.0, 0.25]
    assert doc["fronts"]["2"] == [2, 5] and doc["children"]["2"] == [3, 4, 6]
    assert doc["starred_fronts"]["4"] == [4, 5, 6] and doc["starred_children"]["1"] == [2]


def network_document(spec) -> dict:
    """The network JSON of spec; json writes every float exactly."""
    p = spec.routing.p
    edges = [{"from": int(i) + 1, "to": int(j) + 1, "p": float(p[i, j])} for i, j in zip(*np.nonzero(p))]
    rates = [{"node": j, "terms": [{"c": c, "e": e} for c, e in r.terms]} for j, r in enumerate(spec.rates, start=1)]
    return {"n": spec.n, "edges": edges, "rates": rates}


def test_structure_restates_the_definitions_on_random_trees(tmp_path, capsys):
    rng = np.random.default_rng(31)
    for _ in range(40):
        spec = random_spec(rng, int(rng.integers(1, 13)))
        n, parent = spec.n, spec.parent
        cfg = write_configs(tmp_path, network_document(spec), {})
        assert load_network(tmp_path / "network.json") == spec
        assert run_cli(["structure", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parent"] == {str(j): i for j, i in parent.items()}
        exps = [r.leading[1] for r in spec.rates]  # classes: runs of equal leading exponent
        starts = [j for j in range(1, n + 1) if j == 1 or exps[j - 1] != exps[j - 2]]
        assert doc["classes"] == [list(range(a, b)) for a, b in zip(starts, [*starts[1:], n + 1])]
        for j in range(1, n + 1):
            front = [l for l in range(j, n + 1) if l == 1 or parent[l] < j]
            kids = [l for l in range(2, n + 1) if parent[l] == j]
            own = doc["classes"][doc["class_of"][j - 1] - 1]
            assert doc["fronts"][str(j)] == front and doc["children"][str(j)] == kids
            assert doc["starred_fronts"][str(j)] == [l for l in front if l in own]
            assert doc["starred_children"][str(j)] == [l for l in kids if l in own]


def test_lst_exact_zero_row_and_digits(tmp_path, capsys):
    cfg = write_configs(
        tmp_path,
        TANDEM_NETWORK,
        {"u": 1.0, "omega": {"list": [[0.0, 0.0], [1.0, 1.0]]}},
    )
    assert run_cli(["lst-exact", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["value"] == "1"
    # 1/3-like values print with 17 significant digits
    value = float(rows[1]["value"])
    assert 0.0 < value < 1.0
    assert len(rows[1]["value"].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_lst_exact_diagnostics_columns(tmp_path, capsys):
    cfg = write_configs(
        tmp_path, TANDEM_NETWORK, {"u": 1.0, "omega": {"list": [[0.5, 0.25]]}}
    )
    assert run_cli(["lst-exact", "--config", str(cfg), "--diagnostics"]) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert "prefactor" in header and "phi_minus_delta_1" in header


def test_lst_limit_decoupled_tandem(tmp_path, capsys):
    network = json.loads(json.dumps(TANDEM_NETWORK))
    network["rates"] = [
        {"node": 1, "terms": [{"c": 2, "e": -1}]},
        {"node": 2, "terms": [{"c": 1, "e": -2}]},
    ]
    cfg = write_configs(
        tmp_path,
        network,
        {"regime": "heavy", "omega": {"list": [[0.5, 2.0]]}},
    )
    assert run_cli(["lst-limit", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    expected = 1.0 / (1.0 + 0.5 * 0.5) / (1.0 + 0.5 * 2.0)
    assert float(rows[0]["value"]) == pytest.approx(expected, rel=1e-12)
    assert float(rows[0]["factor_1"]) == pytest.approx(1.0 / 1.25, rel=1e-12)


def near_tandem(tmp_path: Path, e2: float) -> Path:
    """Two-node tandem with rates 2u and u**e2, heavy regime, omega = (0.5, 0.5)."""
    rates = [{"node": 1, "terms": [{"c": 2, "e": 1}]}, {"node": 2, "terms": [{"c": 1, "e": e2}]}]
    return write_configs(
        tmp_path, dict(TANDEM_NETWORK, rates=rates), {"regime": "heavy", "omega": {"list": [[0.5, 0.5]]}}
    )


def test_later_rate_growing_faster_by_5e_13_is_rejected(tmp_path, capsys):
    # the partition compares growth orders exactly, as validate does
    cfg = near_tandem(tmp_path, 1 + 5e-13)
    assert run_cli(["validate", "--config", str(cfg)]) == 1
    assert "limit of r_2/r_1 is infinite" in capsys.readouterr().err
    for command in ("structure", "lst-limit"):
        assert run_cli([command, "--config", str(cfg)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["error"] == "StructuralError"


def test_negative_routing_entry_off_the_tree_exits_2(tmp_path, capsys):
    # p[1,3] = -1e-13 is not an edge of the tree 1 -> 2 -> 3, yet it would reach (I - P)
    edges = [{"from": 1, "to": 2, "p": 1.0}, {"from": 1, "to": 3, "p": -1e-13}, {"from": 2, "to": 3, "p": 1.0}]
    rates = [{"node": j, "terms": [{"c": 4 - j, "e": 0}]} for j in (1, 2, 3)]
    cfg = write_configs(tmp_path, {"n": 3, "edges": edges, "rates": rates}, {})
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and err["error"] == "StructuralError"
    assert err["message"] == "routing fraction p[1,3] = -1e-13 outside [0, 1]"


def test_validate_and_structure_name_the_same_rising_pair(tmp_path, capsys):
    # leading exponents (1, 0, 2) along a tandem: the first rise is from node 2 to node 3
    rates = [{"node": j, "terms": [{"c": 1, "e": e}]} for j, e in ((1, 1), (2, 0), (3, 2))]
    network = {"n": 3, "edges": [{"from": 1, "to": 2, "p": 1.0}, {"from": 2, "to": 3, "p": 1.0}], "rates": rates}
    cfg = write_configs(tmp_path, network, {})
    assert run_cli(["validate", "--config", str(cfg)]) == 1
    checks = {c["assumption"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["ratio-limits"]["detail"].startswith("limit of r_3/r_2 is infinite;")
    assert run_cli(["structure", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StructuralError"
    assert err["message"].startswith("rate of node 3 grows faster than rate of node 2;")


def test_usage_errors_exit_2_with_the_json_error(tmp_path, capsys):
    cfg = write_configs(tmp_path, TANDEM_NETWORK, {})
    cases = {
        ("validate", "--config", str(cfg), "--bogus"): "unrecognized arguments: --bogus",
        ("validate",): "the following arguments are required: --config",
        ("lst-limit", "--config", str(cfg), "--regime", "mid"): "argument --regime: invalid choice: 'mid'",
        (): "the following arguments are required: command",
    }
    for argv, message in cases.items():
        assert run_cli(list(argv)) == 2, argv
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "ConfigError" and err["message"].startswith(message)
    for argv in (["--help"], ["validate", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            run_cli(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: levynet")


def test_later_rate_growing_slower_by_5e_13_is_its_own_class(tmp_path, capsys):
    cfg = near_tandem(tmp_path, 1 - 5e-13)
    assert run_cli(["validate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert run_cli(["lst-limit", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "omega_1,omega_2,value,factor_1,factor_2",
        "0.5,0.5,0.64000000000000012,0.80000000000000004,0.80000000000000004",
    ]


def test_u_flag_only_where_it_is_read(tmp_path, capsys):
    cfg = write_configs(tmp_path, FIGURE1_NETWORK, {})
    assert run_cli(["validate", "--config", str(cfg), "--u", "3"]) == 0
    assert "non-increasing at u = 3" in capsys.readouterr().err
    for command in ("structure", "lst-limit", "sweep"):
        assert run_cli([command, "--config", str(cfg), "--u", "3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {"error": "ConfigError", "message": "unrecognized arguments: --u 3"}


def test_non_finite_u_is_a_usage_error(tmp_path, capsys):
    # the config's u refuses these too; without the check validate passed at
    # u = nan and lst-exact assembled nan at u = inf
    cfg = write_configs(tmp_path, FIGURE1_NETWORK, {"omega": {"list": [[0.5] * 6]}, "sim": {"n_rep": 100}})
    for command in ("validate", "lst-exact", "simulate", "compare"):
        for text in ("nan", "inf", "-inf", "1e400", "abc"):
            assert run_cli([command, "--config", str(cfg), f"--u={text}"]) == 2, (command, text)
            out = capsys.readouterr()
            assert out.out == ""
            message = f"argument --u: invalid finite float value: '{text}'"
            assert json.loads(out.err) == {"error": "ConfigError", "message": message}


def test_u_at_or_below_zero_is_a_usage_error(tmp_path, capsys):
    # these once reached the transforms and the sampler, and exited 3 with their ValueError
    cfg = write_configs(tmp_path, FIGURE1_NETWORK, {"omega": {"list": [[0.5] * 6]}, "sim": {"n_rep": 100}})
    for command in ("validate", "lst-exact", "simulate", "compare"):
        for text in ("0", "-1", "-0", "1e-400"):
            assert run_cli([command, "--config", str(cfg), f"--u={text}"]) == 2, (command, text)
            out = capsys.readouterr()
            assert out.out == ""
            message = f"argument --u: u must be > 0, got '{text}'"
            assert json.loads(out.err) == {"error": "ConfigError", "message": message}


def test_simulate_refuses_a_node_faster_than_its_inflow(tmp_path, capsys):
    # node 2 drains at rate 2 but receives at most 1; the sample once gave a transform of 1.45
    rates = [{"node": j, "terms": [{"c": c, "e": 0}]} for j, c in ((1, 1), (2, 2))]
    run = {"u": 1, "omega": {"list": [[0, 1]]}, "sim": {"n_rep": 100}}
    cfg = write_configs(tmp_path, dict(TANDEM_NETWORK, rates=rates), run)
    for command in ("simulate", "compare"):
        assert run_cli([command, "--config", str(cfg)]) == 2
        out = capsys.readouterr()
        err = json.loads(out.err)
        assert out.out == "" and err["error"] == "StructuralError"
        assert err["message"].startswith("node 2 is faster than its inflow from node 1 at u = 1:")


def tandem_configs(tmp_path, rates, run):
    """A tandem with p = 1 on each edge; rates holds each node's terms as (c, e) pairs."""
    n = len(rates)
    network = {
        "n": n,
        "edges": [{"from": j, "to": j + 1, "p": 1.0} for j in range(1, n)],
        "rates": [{"node": j, "terms": [{"c": c, "e": e} for c, e in terms]} for j, terms in enumerate(rates, 1)],
    }
    return write_configs(tmp_path, network, run)


def test_a_rise_within_the_tandem_exits_2(tmp_path, capsys):
    # constant rates (4, 2, 3, 1): lst-exact once printed 0.73323 with exit 0;
    # node 3 never holds work, so the true value, 0.76291, is the (4, 2, 1) tandem's
    run = {"u": 1, "u_list": [1, 10], "regime": "light", "omega": {"list": [[0.3, 0.5, 0.2, 0.9]]}, "sim": {"n_rep": 100}}
    cfg = tandem_configs(tmp_path, [[(c, 0)] for c in (4, 2, 3, 1)], run)
    message = "r/phat rises from node 2 to node 3: rate ordering violated within class"
    for command in ("lst-exact", "lst-limit", "sweep"):
        assert run_cli([command, "--config", str(cfg)]) == 2, command
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err) == {"error": "StructuralError", "message": message}
    assert run_cli(["validate", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_near_tie_that_rises_is_refused_by_every_command(tmp_path, capsys):
    # rates u + 1 and 0.5 u + 2.0000000000002: at u = 2, r_2 exceeds r_1 = 3 by 2e-13.
    # validate once passed it as a tie, while lst-exact exited 3 and simulate 2
    run = {"u": 2, "omega": {"list": [[0.5, 0.5]]}, "sim": {"n_rep": 100}}
    cfg = tandem_configs(tmp_path, [[(1, 1), (1, 0)], [(0.5, 1), (2.0000000000002, 0)]], run)
    assert run_cli(["validate", "--config", str(cfg), "--u", "2"]) == 1
    checks = {c["assumption"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["rate-ordering[u-probe]"] == {
        "assumption": "rate-ordering[u-probe]",
        "passed": False,
        "detail": "r_1/phat_1 = 3.0 < r_2/phat_2 = 3.0000000000002 at u = 2",
    }
    messages = {
        "lst-exact": "r/phat rises from node 1 to node 2: rate ordering violated within class",
        "compare": "node 2 is faster than its inflow from node 1 at u = 2:",
        "simulate": "node 2 is faster than its inflow from node 1 at u = 2:",
    }
    for command, message in messages.items():
        assert run_cli([command, "--config", str(cfg)]) == 2, command
        out = capsys.readouterr()
        err = json.loads(out.err)
        assert out.out == "" and err["error"] == "StructuralError" and err["message"].startswith(message), command


def test_compare_refuses_a_rise_before_it_samples(tmp_path, capsys, monkeypatch):
    # 1 -> {2, 3} with fractions 0.5 and rates (4, 1, 1.5): the sampler's edge rule
    # accepts it, but r/phat rises from node 2 (2) to node 3 (3); compare once sampled
    # every replication before the exact transform refused it
    network = {
        "n": 3,
        "edges": [{"from": 1, "to": j, "p": 0.5} for j in (2, 3)],
        "rates": [{"node": j, "terms": [{"c": c, "e": 0}]} for j, c in ((1, 4), (2, 1), (3, 1.5))],
    }
    cfg = write_configs(tmp_path, network, {"u": 1, "omega": {"list": [[0.5, 0.5, 0.5]]}, "sim": {"n_rep": 200000}})

    def never(*args, **kwargs):
        raise AssertionError("compare sampled a network the exact transform refuses")

    monkeypatch.setattr(cli, "simulate_workload", never)
    assert run_cli(["compare", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    message = "r/phat rises from node 2 to node 3: rate ordering violated within class"
    assert out.out == "" and json.loads(out.err) == {"error": "StructuralError", "message": message}


def test_simulate_refuses_a_face_floor_that_underflows(capsys):
    # figure 1 at u = 1e100: finite rates, but stick-breaking would never reach a face floor of 0
    config = str(CONFIGS / "figure1.run.json")
    for command in ("simulate", "compare"):
        assert run_cli([command, "--config", config, "--u", "1e100"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err) == {
            "error": "ScalingRangeError",
            "message": "sampler face floor 0 is not a positive float at u = 1e+100",
        }


def test_lst_exact_at_rates_whose_squares_overflow_gives_finite_nonzero_roots():
    # figure 1 at u = 1e100: the rates reach 1e201, whose squares overflow,
    # but the closed-form root squares no rate, so a shell run prints no
    # warning and each printed Phi - delta is that of a finite root > 0
    config = str(CONFIGS / "figure1.run.json")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["lst-exact", "--config", config, "--u", "1e100", "--diagnostics"]
    shell = subprocess.run([sys.executable, "-m", "levynet.cli", *argv], env=env, capture_output=True, timeout=60)
    assert (shell.returncode, shell.stderr) == (0, b"")
    rows = list(csv.DictReader(io.StringIO(shell.stdout.decode())))
    omega = np.array([[float(row[f"omega_{j}"]) for j in range(1, 7)] for row in rows])
    ev = joint_lst_exact(load_network(CONFIGS / "figure1.network.json"), Brownian(1.0), omega, 1e100)
    roots = ev.phi_at_kappa
    assert np.all(np.isfinite(roots)) and np.all((roots > 0.0) == (ev.kappa > 0.0)) and (roots[1:] > 0.0).all()
    printed = np.array([[float(row[f"phi_minus_delta_{j}"]) for j in range(1, 6)] for row in rows])
    assert np.array_equal(printed, roots - ev.delta)


def test_rates_outside_the_float_range_are_refused_by_lst_exact_and_validate(capsys):
    # figure 1 at u = 1e160: a rate overflows to inf.  The exact transform
    # refuses it by the sampler's rule, where it once printed four
    # RuntimeWarnings and a nan; validate fails its u-probe check with it
    config = str(CONFIGS / "figure1.run.json")
    message = "service rates leave the float range at u = 1e+160: 1e+160 to inf"
    for command in ("lst-exact", "simulate"):
        assert run_cli([command, "--config", config, "--u", "1e160"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err) == {"error": "ScalingRangeError", "message": message}
    assert run_cli(["validate", "--config", config, "--u", "1e160"]) == 1
    out = capsys.readouterr()
    checks = {c["assumption"]: c for c in json.loads(out.out)["checks"]}
    assert checks["rate-ordering[u-probe]"] == {"assumption": "rate-ordering[u-probe]", "passed": False, "detail": message}
    assert all(c["passed"] for name, c in checks.items() if name != "rate-ordering[u-probe]")


def test_compare_columns_and_reproducibility(tmp_path, capsys):
    cfg = write_configs(
        tmp_path,
        TANDEM_NETWORK,
        {
            "u": 1.0,
            "omega": {"grid": [
                {"start": 0.2, "stop": 1.0, "points": 2, "scale": "linear"},
                {"start": 0.2, "stop": 1.0, "points": 2, "scale": "linear"},
            ]},
            "sim": {"n_rep": 2000, "seed": 9},
        },
    )
    assert run_cli(["compare", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    header = first.splitlines()[0].split(",")
    assert header == ["omega_1", "omega_2", "empirical", "se", "exact", "abs_gap", "gap_over_se"]
    assert len(first.splitlines()) == 5
    assert run_cli(["compare", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == first


def test_compare_zero_gap_is_zero_se(capsys):
    # at omega = 0 every replication gives exp(0) = 1: empirical = exact = 1, se = 0
    assert run_cli(["compare", "--config", str(CONFIGS / "figure1.run.json"), "--seed", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    zero = rows[0]
    assert [zero[f"omega_{j}"] for j in range(1, 7)] == ["0"] * 6
    assert (zero["empirical"], zero["se"], zero["exact"], zero["abs_gap"]) == ("1", "0", "1", "0")
    assert zero["gap_over_se"] == "0"
    assert all(0.0 < float(row["gap_over_se"]) < 6.0 for row in rows[1:])


def test_simulate_seed_flag_changes_output(tmp_path, capsys):
    cfg = write_configs(
        tmp_path,
        TANDEM_NETWORK,
        {"u": 1.0, "omega": {"list": [[0.5, 0.5]]}, "sim": {"n_rep": 1000, "seed": 1}},
    )
    assert run_cli(["simulate", "--config", str(cfg)]) == 0
    base = capsys.readouterr().out
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "2"]) == 0
    assert capsys.readouterr().out != base


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # numpy's generator once refused it, exit 3, naming neither --seed nor the seed
    cfg = write_configs(tmp_path, TANDEM_NETWORK, {"u": 1.0, "omega": {"list": [[0.5, 0.5]]}, "sim": {"n_rep": 100}})
    for command in ("simulate", "compare", "sweep"):
        for text in ("-1", "1.5", "abc"):
            assert run_cli([command, "--config", str(cfg), f"--seed={text}"]) == 2, (command, text)
            out = capsys.readouterr()
            assert out.out == ""
            message = f"argument --seed: seed must be an integer >= 0, got '{text}'"
            assert json.loads(out.err) == {"error": "ConfigError", "message": message}
    assert run_cli(["simulate", "--config", str(cfg), "--seed=0"]) == 0
    capsys.readouterr()
    negative = write_configs(tmp_path, TANDEM_NETWORK, {"u": 1.0, "omega": {"list": [[0.5, 0.5]]}, "sim": {"seed": -1}})
    assert run_cli(["simulate", "--config", str(negative)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and json.loads(out.err) == {
        "error": "ConfigError",
        "message": "invalid run config at sim/seed: -1 is less than the minimum of 0",
    }


def test_sweep_gap_decreases(tmp_path, capsys):
    network = json.loads(json.dumps(TANDEM_NETWORK))
    network["rates"] = [
        {"node": 1, "terms": [{"c": 2, "e": -1}]},
        {"node": 2, "terms": [{"c": 1, "e": -2}]},
    ]
    cfg = write_configs(
        tmp_path,
        network,
        {"regime": "heavy", "omega": {"list": [[0.7, 1.3]]}, "u_list": [10, 100]},
    )
    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["u"] for r in rows] == ["10", "100"]
    assert float(rows[0]["gap"]) > float(rows[1]["gap"])


def test_sweep_with_empirical_columns(tmp_path, capsys):
    cfg = write_configs(
        tmp_path,
        TANDEM_NETWORK,
        {
            "regime": "heavy",
            "omega": {"list": [[0.5, 0.5]]},
            "u_list": [1.0],
            "sim": {"n_rep": 2000, "seed": 3},
        },
    )
    assert run_cli(["sweep", "--config", str(cfg), "--with-empirical"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split(",")
    assert header[-2:] == ["empirical", "se"]
    row = dict(zip(header, out.splitlines()[1].split(",")))
    assert abs(float(row["empirical"]) - float(row["exact_scaled"])) < 6 * float(row["se"])


def test_out_flag_writes_file(tmp_path, capsys):
    cfg = write_configs(
        tmp_path, TANDEM_NETWORK, {"u": 1.0, "omega": {"list": [[0.0, 0.0]]}}
    )
    out_path = tmp_path / "table.csv"
    assert run_cli(["lst-exact", "--config", str(cfg), "--out", str(out_path)]) == 0
    assert out_path.read_text().splitlines()[1] == "0,0,1"


def test_config_that_cannot_be_read_exits_2(tmp_path, capsys):
    # a directory given as the run config, or named as its network
    write_configs(tmp_path, TANDEM_NETWORK, {})
    run = {"network": ".", "input": {"kind": "brownian", "sigma2": 1.0}}
    (tmp_path / "dir_network.json").write_text(json.dumps(run))
    for config, what in ((tmp_path, "run config"), (tmp_path / "dir_network.json", "network")):
        assert run_cli(["validate", "--config", str(config)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{what} file ") and "cannot be read" in err["message"]


def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    # every command: the output is computed, then refused by the one writer
    run = {
        "u": 1.0,
        "u_list": [1.0],
        "regime": "heavy",
        "omega": {"list": [[0.5, 0.5]]},
        "sim": {"n_rep": 200, "seed": 3},
    }
    cfg = write_configs(tmp_path, TANDEM_NETWORK, run)
    commands = (
        ["validate"], ["structure"], ["lst-exact"], ["lst-limit"], ["simulate"], ["compare"],
        ["sweep", "--with-empirical"],
    )
    for command in commands:
        out_path = tmp_path / "missing" / "out.txt"
        assert run_cli([*command, "--config", str(cfg), "--out", str(out_path)]) == 2, command
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "ConfigError",
            "message": f"--out {out_path} cannot be written: No such file or directory",
        }
        assert not out_path.parent.exists()


def test_missing_u_is_config_error(tmp_path, capsys):
    cfg = write_configs(tmp_path, TANDEM_NETWORK, {"omega": {"list": [[0.5, 0.5]]}})
    assert run_cli(["lst-exact", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "u" in err["message"]


def test_a_missing_setting_is_named_with_its_flag_where_the_command_has_one(tmp_path, capsys):
    # each command reports the first setting it reads; omega and u_list have no flag
    cases = {
        "lst-exact": "missing u: set it in the config or pass --u",
        "lst-exact --u 4": "missing omega: set it in the config",
        "lst-limit": "missing regime: set it in the config or pass --regime",
        "lst-limit --regime heavy": "missing omega: set it in the config",
        "simulate": "missing omega: set it in the config",
        "compare": "missing omega: set it in the config",
        "sweep": "missing regime: set it in the config or pass --regime",
        "sweep --with-empirical": "missing regime: set it in the config or pass --regime",
    }
    cfg = write_configs(tmp_path, TANDEM_NETWORK, {"sim": {"n_rep": 100}})
    for command, message in cases.items():
        name, *flags = command.split()
        assert run_cli([name, "--config", str(cfg), *flags]) == 2, command
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err) == {"error": "ConfigError", "message": message}, command
    for run in ({"regime": "heavy", "omega": {"list": [[0.5, 0.5]]}}, {"omega": {"list": [[0.5, 0.5]]}}):
        cfg = write_configs(tmp_path, TANDEM_NETWORK, run)
        command = ["sweep", "--config", str(cfg)] + ([] if "regime" in run else ["--regime", "light"])
        assert run_cli(command) == 2
        out = capsys.readouterr()
        message = "missing u_list: set it in the config"
        assert out.out == "" and json.loads(out.err) == {"error": "ConfigError", "message": message}


def test_one_replication_is_refused_before_sampling(tmp_path, capsys, monkeypatch):
    # one replication has no standard error: simulate and compare once drew it,
    # then exited 3 with a ValueError from the estimator
    run = {"u": 1.0, "u_list": [1.0], "regime": "heavy", "omega": {"list": [[0.5, 0.5]]}, "sim": {"n_rep": 1}}
    cfg = write_configs(tmp_path, TANDEM_NETWORK, run)

    def never(*args, **kwargs):
        raise AssertionError("a command sampled one replication")

    monkeypatch.setattr(cli, "simulate_workload", never)
    for command in (["simulate"], ["compare"], ["sweep", "--with-empirical"]):
        assert run_cli([*command, "--config", str(cfg)]) == 2, command
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err) == {
            "error": "ConfigError",
            "message": "invalid run config at sim/n_rep: 1 is less than the minimum of 2",
        }


def test_unsupported_regime_is_numerical_error(tmp_path, capsys):
    run = {
        "network": "network.json",
        "input": {"kind": "centered_gamma", "shape": 1.0, "rate": 1.0},
        "regime": "light",
        "omega": {"list": [[0.5, 0.5]]},
    }
    net_path = tmp_path / "network.json"
    net_path.write_text(json.dumps(TANDEM_NETWORK))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(run))
    assert run_cli(["lst-limit", "--config", str(cfg)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnsupportedRegimeError"


def test_bad_omega_length_rejected(tmp_path, capsys):
    cfg = write_configs(tmp_path, TANDEM_NETWORK, {"omega": {"list": [[0.5]]}, "u": 1.0})
    assert run_cli(["lst-exact", "--config", str(cfg)]) == 2


def _tandem_with(**changes) -> dict:
    return dict(TANDEM_NETWORK, **changes)


def _rate(node: int, c: float = 1.0) -> dict:
    return {"node": node, "terms": [{"c": c, "e": 0}]}


_AXIS = {"start": 0.1, "stop": 1, "points": 3}
CONFIG_REFUSALS = {  # message: (error, network, omega block)
    "rate entry references node 3 outside 1..2": ("ConfigError", _tandem_with(rates=[_rate(1, 2), _rate(2), _rate(3)]), None),
    "duplicate rate entry for node 1": ("ConfigError", _tandem_with(rates=[_rate(1, 2), _rate(1), _rate(2)]), None),
    "missing rate entries for nodes [2]": ("ConfigError", _tandem_with(rates=[_rate(1, 2)]), None),
    "edge (1 -> 3) references a node outside 1..2": (
        "StructuralError", _tandem_with(edges=[{"from": 1, "to": 3, "p": 1.0}]), None
    ),
    "omega vector [0.5, -0.5] has negative entries": ("ConfigError", TANDEM_NETWORK, {"list": [[0.5, 0.5], [0.5, -0.5]]}),
    "omega grid needs one range per coordinate (2), got 1": ("ConfigError", TANDEM_NETWORK, {"grid": [_AXIS]}),
    "invalid omega range [1, 0.1]": ("ConfigError", TANDEM_NETWORK, {"grid": [_AXIS, {**_AXIS, "start": 1, "stop": 0.1}]}),
    "log-spaced omega ranges need start > 0": (
        "ConfigError", TANDEM_NETWORK, {"grid": [{**_AXIS, "start": 0, "scale": "log"}] * 2}
    ),
}


@pytest.mark.parametrize("message", CONFIG_REFUSALS)
def test_config_refusals_exit_2_with_their_message(tmp_path, capsys, message):
    error, network, omega = CONFIG_REFUSALS[message]
    cfg = write_configs(tmp_path, network, {"u": 1.0, **({"omega": omega} if omega else {})})
    assert run_cli(["lst-exact", "--config", str(cfg)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}


HEAVY_TANDEM_NETWORK = dict(  # configs/tandem2_heavy.network.json
    TANDEM_NETWORK,
    rates=[
        {"node": 1, "terms": [{"c": 2, "e": -1}]},
        {"node": 2, "terms": [{"c": 1, "e": -2}]},
    ],
)


def stable_input(alpha: float) -> dict:
    return {"kind": "stable_sum", "components": [{"alpha": alpha, "scale": 0.5}]}


def test_simulate_default_horizon_overflow_exits_3(tmp_path, capsys):
    # at alpha = 1.01 the default horizon tau * 1e-4**-100 passes the float range
    cfg = write_configs(
        tmp_path,
        HEAVY_TANDEM_NETWORK,
        {"input": stable_input(1.01), "u": 10, "omega": {"list": [[0.3, 1.2]]}, "sim": {"n_rep": 200}},
    )
    assert run_cli(["simulate", "--config", str(cfg)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "ValueError",
        "message": "default horizon overflows at alpha = 1.01; set it explicitly",
    }


def test_sweep_scaled_frequency_underflow_exits_3(tmp_path, capsys):
    # alpha = 1.02: beta = 50, and node 2's r(u)**beta = u**-100 leaves the
    # normal float range above u = 1.2e3: a subnormal at u = 1.5e3, 0 at u = 1e4
    run = {"input": stable_input(1.02), "regime": "heavy", "omega": {"list": [[0.3, 1.2]]}}
    cfg = write_configs(tmp_path, HEAVY_TANDEM_NETWORK, dict(run, u_list=[10, 100, 1000]))
    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "10,0.29999999999999999,1.2,0.45889560709336585,0.44745247995406873,0.011443127139297127",
        "100,0.29999999999999999,1.2,0.44859756598107903,0.44745247995406873,0.0011450860270103003",
        "1000,0.29999999999999999,1.2,0.44756699629521685,0.44745247995406873,0.00011451634114811871",
    ]
    for u, lost in ((1500, "underflows to 2.95159e-318"), (10000, "underflows to 0")):
        cfg = write_configs(tmp_path, HEAVY_TANDEM_NETWORK, dict(run, u_list=[10, 100, 1000, u]))
        assert run_cli(["sweep", "--config", str(cfg)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        err = json.loads(out.err)
        assert err["error"] == "ScalingRangeError"
        assert f"node 2 {lost} at u = {u}" in err["message"]


ONE_CLASS_TANDEM_NETWORK = dict(
    TANDEM_NETWORK,
    rates=[
        {"node": 1, "terms": [{"c": 1, "e": -1}]},
        {"node": 2, "terms": [{"c": 1e-4, "e": -1}]},
    ],
)


def test_limit_refuses_a_fraction_power_that_leaves_the_float_range(tmp_path, capsys):
    # one class with fractions (1, 1e-4): beta = 1 / (alpha - 1) is 50 at
    # alpha = 1.02, where fraction_2**beta = 1e-200 is kept, and 100 at
    # alpha = 1.01, where 1e-400 underflows to 0 and node 2's frequency is lost
    run = {"regime": "heavy", "omega": {"list": [[0, 1], [1, 1]]}, "u_list": [10, 100]}
    cfg = write_configs(tmp_path, ONE_CLASS_TANDEM_NETWORK, dict(run, input=stable_input(1.02)))
    assert run_cli(["lst-limit", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "omega_1,omega_2,value,factor_1",
        "0,1,0.66666733334900175,0.66666733334900175",
        "1,1,0.44446711107711123,0.44446711107711123",
    ]
    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "u,omega_1,omega_2,exact_scaled,limit,gap",
        "10,0,1,0.66666733334900186,0.66666733334900175,1.1102230246251565e-16",
        "10,1,1,0.44446711107711129,0.44446711107711123,5.5511151231257827e-17",
        "100,0,1,0.66666733334900175,0.66666733334900175,0",
        "100,1,1,0.44446711107711123,0.44446711107711123,0",
    ]
    cfg = write_configs(tmp_path, ONE_CLASS_TANDEM_NETWORK, dict(run, input=stable_input(1.01)))
    for command in ("lst-limit", "sweep"):
        assert run_cli([command, "--config", str(cfg)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "ScalingRangeError",
            "message": "scaled frequency of node 2 underflows to 0 in the limit: omega_2 = 1, fraction_2**beta = 0",
        }


def test_zero_jump_rate_is_a_config_error_for_every_command(tmp_path, capsys):
    cp = {"kind": "compound_poisson", "lambda": 0, "job": {"kind": "deterministic", "size": 1.0}}
    run = {"input": cp, "omega": {"list": [[0.5, 0.5]]}, "u": 4, "u_list": [10], "regime": "heavy"}
    cfg = write_configs(tmp_path, HEAVY_TANDEM_NETWORK, run)
    for command in ("validate", "structure", "lst-exact", "lst-limit", "simulate", "compare", "sweep"):
        assert run_cli([command, "--config", str(cfg)]) == 2, command
        out = capsys.readouterr()
        assert out.out == ""
        assert json.loads(out.err) == {
            "error": "ConfigError",
            "message": "invalid input block: jump intensity must be positive and finite, got 0",
        }


def test_rate_terms_that_sum_past_the_float_range_are_a_config_error(tmp_path, capsys):
    # each term is finite, but 1e308 + 1e308 is not: refused after merging,
    # before validate reads the rates
    huge = {"c": 1e308, "e": 1.0}
    network = dict(TANDEM_NETWORK, rates=[{"node": 1, "terms": [huge, huge]}, TANDEM_NETWORK["rates"][1]])
    cfg = write_configs(tmp_path, network, {"u": 1.0, "omega": {"list": [[0.5, 0.5]]}})
    assert run_cli(["validate", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "ConfigError",
        "message": "invalid rate for node 1: monomial coefficients of u**1.0 sum past the float range",
    }


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# sha256 of stdout and the exit code of each command on the shipped run
# configs; a change to any printed digit changes these.  Empty stdout hashes
# to e3b0c442...: tandem2_brownian has no regime, so its limit commands exit 2,
# and r/phat of figure 1 rises from node 3 to node 4 at u = 1.2, so validate
# fails there (exit 1) and lst-exact refuses (exit 2).
# The printed digits come from np.power, libm and BLAS sums, which another
# numpy build, BLAS or CPU may round differently: these digests were computed
# with numpy 2.4.6 and OpenBLAS 0.3.31 under Python 3.11 on x86-64 (AVX-512).
DIGEST_ENVIRONMENT = "numpy 2.4.6, OpenBLAS 0.3.31, Python 3.11, x86_64"
SHIPPED_OUTPUT = (
    ("figure1.run.json", "validate", 0, "b0214817f79756cf70588e084f0121a70614c99dcfdd71dbaafd42671f9f1ac5"),
    ("figure1.run.json", "structure", 0, "4cf3765b6cccf9aa41efd8a63311ed38d59f10de6fdce3f8d4c53adc7f83aa7f"),
    ("figure1.run.json", "lst-exact --u 4", 0, "841217a7fd02dda27eb665974a84136ff50082e547a283f594b7f7856e658e46"),
    ("figure1.run.json", "lst-exact --u 4 --diagnostics", 0, "9f83a8479c569f0e255ca45d3cab3a99ce50cef558ca4fbd63e10f57fdcb7a70"),
    ("figure1.run.json", "lst-limit", 0, "21c6f4731031a8bc64d76c6426024aa4d1073a962917c4f2651b12016c4af437"),
    ("figure1.run.json", "sweep", 0, "4805eea4b2282c0d7dfdd4f3e9c6c2bb844b5317e6490b48dae7ad6386a64c2d"),
    ("figure1.run.json", "validate --u 1.2", 1, "34aead1560e12779516155729153216b2318a833f2fbd2d83a10a54c17ff7706"),
    ("figure1.run.json", "lst-exact --u 1.2", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tandem2_brownian.run.json", "validate", 0, "dad8efbe23a8563aa1c8d40e80c7cf3bdae69574c8d2526e71b614eb868a8a06"),
    ("tandem2_brownian.run.json", "structure", 0, "b1f4f19acbc86d75e86f90263a7d02f52a854e6c9864786d3622c04c3d95725d"),
    ("tandem2_brownian.run.json", "lst-exact --u 4", 0, "2100d72381cf2038d9d4eee88422cfc145dac1e677f4885024b8e681021bb430"),
    ("tandem2_brownian.run.json", "lst-exact --u 4 --diagnostics", 0, "e6e1d8c74262f5f04c59ef25352da1df7ca053827f5ed31094af0cf271204850"),
    ("tandem2_brownian.run.json", "lst-limit", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tandem2_brownian.run.json", "sweep", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tandem2_heavy_sweep.run.json", "validate", 0, "85f4ceba4e52ec71d2bb4f475d5fa065aa5efdbe558ed045219b2c4e98f543a4"),
    ("tandem2_heavy_sweep.run.json", "structure", 0, "1cf4805b811a8e6b1a98a6e6f49bab6715fbb22416384f433ce6ca2cdf32fe08"),
    ("tandem2_heavy_sweep.run.json", "lst-exact --u 4", 0, "895615f5762351a5e8e4d5fb6ee093d4a9567b8b62451cde75a40644b2b18267"),
    ("tandem2_heavy_sweep.run.json", "lst-exact --u 4 --diagnostics", 0, "7a517d1235a0379ccbbd921ff8b2f867da900e57dd66e053de244f5af0dba176"),
    ("tandem2_heavy_sweep.run.json", "lst-limit", 0, "edf8a9feb238c3795dfe4be0bbcb9eb70b96447dbc1103f8aaebee00555037b3"),
    ("tandem2_heavy_sweep.run.json", "sweep", 0, "55b140f79647c31dce257e856c39711649b489f1ddc0991491f92006a7326bef"),
    # gamma, Erlang-3 compound-Poisson and stable-1.5 input on the same tandem:
    # each family's exponent, tail pair and sampler
    ("tandem2_heavy_gamma.run.json", "lst-exact --u 4", 0, "d85e1856673366586e62fd3efeaf8171cf1eb04ff08fd9afd7425839b5dcd859"),
    ("tandem2_heavy_gamma.run.json", "lst-exact --u 4 --diagnostics", 0, "1d592f953d01ffdbb048b78ce0774f4f24a7800a1bd4a9a726749c0025f407ef"),
    ("tandem2_heavy_gamma.run.json", "lst-limit", 0, "b65bb50695c62e073d6a9a96b199e142804257883466c3e5d258ef74b15cf70d"),
    ("tandem2_heavy_gamma.run.json", "sweep", 0, "3462745b27a032ef05b64ed7d07e6a3a87d6a1ceab4684a94e03ca4b0600d6e1"),
    ("tandem2_heavy_gamma.run.json", "simulate", 0, "05458f45de8b865d98ae8e6a3d4fbc36ff2fa805cbebe1beb2edb34a20c31149"),
    ("tandem2_heavy_erlang3.run.json", "lst-exact --u 4", 0, "f058b060155ae943da2048b2a7ddc98069c953e742cfb0d122bbd3bb480aa936"),
    ("tandem2_heavy_erlang3.run.json", "lst-exact --u 4 --diagnostics", 0, "8d331f36481137bd1bc821540af5c2450260d98f15f82bf9f25c71ee826cd273"),
    ("tandem2_heavy_erlang3.run.json", "lst-limit", 0, "e7c0efdcebdc203cb91a30779dd310e988cd37a32fd95e10926f11a184d5e7e9"),
    ("tandem2_heavy_erlang3.run.json", "sweep", 0, "a868d934366a103895400f25162f0b8c7321548f4cd5d27b678af69a4546d220"),
    ("tandem2_heavy_erlang3.run.json", "simulate", 0, "75bd0ad74d3c74763c38a60aebb3ba3d4f1ea938e86d6c4b25b0a8f7152ba7b0"),
    ("tandem2_heavy_stable.run.json", "lst-exact --u 4", 0, "04e47c951488cd33f07e3b7b375fdb09b5fd00cc9e823f8135ea0e7b2171e559"),
    ("tandem2_heavy_stable.run.json", "lst-exact --u 4 --diagnostics", 0, "a15138bc1c4511848e69cf82262c1e16ba257e5f91e6df06a0d2bf2e3ef6d2f0"),
    ("tandem2_heavy_stable.run.json", "lst-limit", 0, "869f4cf1949d141b803e29ce856fc3aea3ef666e413ec3598a4f84903234f398"),
    ("tandem2_heavy_stable.run.json", "sweep", 0, "d739a02765c457f652e03510d55081d9fe83e362a9c36602f466efcf183261c0"),
    ("tandem2_heavy_stable.run.json", "simulate", 0, "293378c0985495458ba3d76bfd613444fe873c2868f17332d1b762ceeb826af4"),
    # compare and sweep --with-empirical: the Monte Carlo columns beside the transforms
    ("tandem2_brownian.run.json", "compare", 0, "03e0c21224623437db711596bbac1e70c605b9b83584795e1b4ba39125f0405f"),
    ("tandem2_heavy_gamma.run.json", "compare", 0, "5f3ad445aa6ea776f138af06828d88e74355e8e3250d98a8aba467732cb343aa"),
    ("tandem2_heavy_erlang3.run.json", "compare", 0, "c671c4c7184ffb55628335918bcf4ec50539c6b206422c6257200dfe43169279"),
    ("tandem2_heavy_stable.run.json", "compare", 0, "e149de35ca0dd7cd72d2c68fb48a6a2404f127c24ba413828363184cd238b0ab"),
    ("tandem2_brownian.run.json", "simulate", 0, "8460020ab0cba41a307aaf1a01ebf3d478512cf7a5c82b86a3233e9905385a60"),
    ("tandem2_heavy_gamma.run.json", "sweep --with-empirical", 0, "3dffdd245279fe5bba8a2d9a157eb2ad3b31671bc1db2796dbea094be5f27e0e"),
)


@pytest.mark.parametrize(
    "config, command, code, digest", SHIPPED_OUTPUT, ids=[f"{c[0]}:{c[1]}" for c in SHIPPED_OUTPUT]
)
def test_shipped_config_output_is_bit_reproducible(config, command, code, digest, capsys):
    name, *flags = command.split()
    assert run_cli([name, "--config", str(CONFIGS / config), *flags]) == code
    here = f"numpy {np.__version__}, Python {platform.python_version()}, {platform.machine()}"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, (
        f"stdout differs from the digest computed with {DIGEST_ENVIRONMENT}; this run: {here}"
    )


@pytest.mark.parametrize(
    "config, command, code, digest", SHIPPED_OUTPUT, ids=[f"{c[0]}:{c[1]}" for c in SHIPPED_OUTPUT]
)
def test_out_file_holds_the_stdout_bytes(config, command, code, digest, tmp_path, capsys):
    name, *flags = command.split()
    out_path = tmp_path / "out"
    assert run_cli([name, "--config", str(CONFIGS / config), *flags, "--out", str(out_path)]) == code
    assert capsys.readouterr().out == ""
    if code == 2:  # refused before anything was computed
        assert not out_path.exists()
    else:
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def readme_cli_examples() -> list[list[str]]:
    """The arguments of each `levynet ...` line of README's sh blocks, comments dropped."""
    readme = (CONFIGS.parent / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    lines = [line.split("#")[0].split() for block in blocks for line in block.split("```")[0].splitlines()]
    return [words[1:] for words in lines if words[:1] == ["levynet"]]


def test_readme_cli_examples_run(monkeypatch, capsys):
    monkeypatch.chdir(CONFIGS.parent)
    examples = readme_cli_examples()
    commands = {"validate", "structure", "lst-exact", "lst-limit", "simulate", "compare", "sweep"}
    assert {argv[0] for argv in examples} == commands
    for argv in examples:
        assert run_cli(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] in ("validate", "structure"):
            assert isinstance(json.loads(out), dict), argv
        else:
            assert out.startswith("omega_1," if argv[0] != "sweep" else "u,omega_1,"), argv


def shipped_run(config: str, command: str, capsys) -> tuple[int, str]:
    """Exit code and stdout of one command on a shipped run config."""
    name, *flags = command.split()
    code = run_cli([name, "--config", str(CONFIGS / config), *flags])
    return code, capsys.readouterr().out


def shipped_digest(config: str, command: str) -> tuple[int, str]:
    return next((c, d) for cfg, cmd, c, d in SHIPPED_OUTPUT if (cfg, cmd) == (config, command))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for config, command, code, _ in SHIPPED_OUTPUT[:6]:
        assert shipped_run(config, command, capsys)[0] == code
    assert run_cli(["structure", "--u", "3"]) == 2
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser.cache_info().hits == 6


def test_no_state_carries_between_calls(capsys):
    # an argparse failure, then a good command
    assert shipped_run("figure1.run.json", "structure --u 3", capsys) == (2, "")
    code, out = shipped_run("figure1.run.json", "structure", capsys)
    assert (code, sha256(out)) == shipped_digest("figure1.run.json", "structure")
    # --regime once, then the config's regime (tandem2_brownian has none: exit 2)
    for config in ("figure1.run.json", "tandem2_brownian.run.json"):
        code, out = shipped_run(config, "lst-limit --regime heavy", capsys)
        assert code == 0 and out
        code, out = shipped_run(config, "lst-limit", capsys)
        assert (code, sha256(out)) == shipped_digest(config, "lst-limit")
    # --diagnostics once, then none: no diagnostic columns
    code, out = shipped_run("figure1.run.json", "lst-exact --u 4 --diagnostics", capsys)
    assert code == 0 and "prefactor" in out.splitlines()[0]
    code, out = shipped_run("figure1.run.json", "lst-exact --u 4", capsys)
    assert "prefactor" not in out.splitlines()[0]
    assert (code, sha256(out)) == shipped_digest("figure1.run.json", "lst-exact --u 4")


def test_shipped_outputs_back_to_back_in_one_process(capsys):
    for config, command, code, digest in reversed(SHIPPED_OUTPUT):
        got_code, out = shipped_run(config, command, capsys)
        assert (got_code, sha256(out)) == (code, digest), f"{config}: {command}"


def test_shell_call_matches_in_process_call(capsys):
    argv = ["lst-exact", "--config", "configs/figure1.run.json", "--u", "4"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    shell = subprocess.run(
        [sys.executable, "-m", "levynet.cli", *argv], cwd=CONFIGS.parent, env=env, capture_output=True, timeout=60
    )
    for config, command, code, _ in SHIPPED_OUTPUT[:6]:
        assert shipped_run(config, command, capsys)[0] == code
    code = run_cli([argv[0], "--config", str(CONFIGS / "figure1.run.json"), *argv[3:]])
    assert (shell.returncode, shell.stdout) == (code, capsys.readouterr().out.encode())
