"""The names and calls that perfbench/ relies on.

perfbench/tracing.py wraps library functions and methods by name when a traced
run starts, and perfbench/workloads.py builds its inputs through the public
API; a renamed or removed name makes the benchmark exit before it measures
anything.  These tests install the tracer the way a traced run does.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from levynet import (
    Brownian,
    CenteredGamma,
    RateFunction,
    SimConfig,
    TailPair,
    cli,
    exact,
    limit,
    partition_rates,
    simulate,
)

from conftest import tandem_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its imports of levynet names must resolve)

    original = exact.joint_lst_exact
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    w = np.array([0.5, 1.0])
    with tracing.Tracer().installed() as tr:
        assert exact.joint_lst_exact is not original
        assert cli.joint_lst_exact is exact.joint_lst_exact
        value = exact.joint_lst_exact(spec, CenteredGamma(2.0, 1.5), w, 1.0).value
        transform_rate_calls = tr.counts["network.rate"]
        spec.rates[0](1.0)
    assert exact.joint_lst_exact is original and cli.joint_lst_exact is original
    assert value == original(spec, CenteredGamma(2.0, 1.5), w, 1.0).value
    assert len(tr.durations("exact.joint_lst_exact")) == 1
    assert tr.counts["roots.solve"] == spec.n - 1
    assert tr.counts["models.exponent"] > 0
    # rate_vector reads the packed monomials, so the transform calls no
    # RateFunction; a direct call of one is still counted
    assert transform_rate_calls == 0 and tr.counts["network.rate"] == 1


def test_traced_quadratic_exponents_make_no_root_solves(monkeypatch):
    # Brownian input and every alpha = 2 limit invert psi in closed form
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import trees

    spec = trees.random_tree(np.random.default_rng([50, 1]), 50)
    part = partition_rates(spec)
    model = Brownian(1.0)
    w = np.random.default_rng(5).uniform(0.05, 2.5, spec.n)
    with tracing.Tracer().installed() as tr:
        exact.joint_lst_exact(spec, model, w, 2.0)
        limit.joint_lst_limit(spec, part, model.tail_pair("heavy"), w)
    assert len(tr.durations("exact.joint_lst_exact")) == 1
    assert len(tr.durations("limit.joint_lst_limit")) == 1
    assert tr.counts["roots.solve"] == 0


def test_traced_limit_solves_once_per_inner_node(monkeypatch):
    # the benchmark's T50 tree: 50 nodes in 3 rate classes, so 47 nodes lie
    # inside a class and need a root solve at alpha < 2; none of them goes
    # through singular_limit
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import trees

    spec = trees.random_tree(np.random.default_rng([50, 1]), 50)
    part = partition_rates(spec)
    tail = TailPair(1.5, 0.5)
    w = np.random.default_rng(5).uniform(0.05, 2.5, spec.n)
    with tracing.Tracer().installed() as tr:
        value = limit.joint_lst_limit(spec, part, tail, w).value
    assert 0.0 < value <= 1.0
    assert (spec.n, part.m) == (50, 3)
    assert tr.counts["roots.solve"] == spec.n - part.m
    assert len(tr.durations("limit.joint_lst_limit")) == 1
    assert tr.durations("limit.singular_limit") == []


def test_benchmark_sim_config_is_accepted():
    cfg = SimConfig(u=1.0, n_rep=2, seed=0, n_workers=1)
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    assert simulate.simulate_workload(spec, Brownian(1.0), cfg).shape == (2, 2)


@pytest.mark.parametrize("name", ["transform_deep", "mc_crossval", "cli_configs"])
def test_workload_checks_pass_untraced_and_traced(monkeypatch, tmp_path, name):
    # a run whose output checks fail, traced or not, ends "correct": false;
    # --seconds 1 gives the fewest repeats the workload allows
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    shutil.copytree(PERFBENCH.parent / "configs", tmp_path / "configs")
    setup, run = workloads.WORKLOADS[name]
    untraced = run(setup(tmp_path, 1, 1), tracing.NoTrace())
    with tracing.Tracer().installed() as tr:
        traced = run(setup(tmp_path, 1, 1), tr)
    for outcome in (untraced, traced):
        assert outcome.problems == [] and outcome.failed == 0
    assert traced.attempted == untraced.attempted > 0
