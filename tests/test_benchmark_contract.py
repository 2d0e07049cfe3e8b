"""The names and calls that perfbench/ relies on.

perfbench/tracing.py wraps library functions and methods by name when a traced
run starts, and perfbench/workloads.py builds its inputs through the public
API; a renamed or removed name makes the benchmark exit before it measures
anything.  These tests install the tracer the way a traced run does.
"""

from pathlib import Path

import numpy as np

from levynet import Brownian, RateFunction, SimConfig, cli, exact, simulate

from conftest import tandem_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its imports of levynet names must resolve)

    original = exact.joint_lst_exact
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    with tracing.Tracer().installed() as tr:
        assert exact.joint_lst_exact is not original
        assert cli.joint_lst_exact is exact.joint_lst_exact
        value = exact.joint_lst_exact(spec, Brownian(1.0), np.array([0.5, 1.0]), 1.0).value
    assert exact.joint_lst_exact is original and cli.joint_lst_exact is original
    assert value == original(spec, Brownian(1.0), np.array([0.5, 1.0]), 1.0).value
    assert len(tr.durations("exact.joint_lst_exact")) == 1
    assert tr.counts["roots.solve"] == spec.n - 1
    assert tr.counts["network.rate"] > 0 and tr.counts["models.exponent"] > 0


def test_benchmark_sim_config_is_accepted():
    cfg = SimConfig(u=1.0, n_rep=2, seed=0, n_workers=1)
    spec = tandem_spec([RateFunction.monomial(2.0, 0.0), RateFunction.monomial(1.0, 0.0)])
    assert simulate.simulate_workload(spec, Brownian(1.0), cfg).shape == (2, 2)
