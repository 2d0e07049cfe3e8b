"""The public names of the levynet package.

A name added to or removed from `levynet/__init__.py` must be added to or
removed from PUBLIC_NAMES too; a removal also gets a line in CHANGES.md.
"""

import types

import levynet

PUBLIC_NAMES = {
    # errors
    "ConfigError",
    "LevynetError",
    "RootFindingError",
    "ScalingRangeError",
    "SingularFactorError",
    "StructuralError",
    "UnsupportedRegimeError",
    # network and partition
    "NetworkSpec",
    "RateClassPartition",
    "RateFunction",
    "RoutingMatrix",
    "ValidationReport",
    "build_network",
    "partition_rates",
    "starred_sets",
    "validate_assumptions",
    # input models
    "Brownian",
    "CenteredGamma",
    "CompoundPoisson",
    "DeterministicJob",
    "ErlangJob",
    "ExponentialJob",
    "LevyModel",
    "StableSum",
    "TailPair",
    # exact transform
    "LstEvaluation",
    "joint_lst_exact",
    "kappa",
    # limit transform and its closed-form oracles
    "LimitLst",
    "TandemParams",
    "TwoLayerParams",
    "closed_form_tandem",
    "closed_form_two_layer",
    "joint_lst_limit",
    "psi_limit_inverse",
    "scaling_coefficients",
    "singular_limit",
    # simulation
    "EmpiricalLst",
    "SimConfig",
    "convergence_study",
    "default_horizon",
    "empirical_lst",
    "horizon_diagnostic",
    "simulate_workload",
    # configs
    "load_network",
    "load_run_config",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(levynet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
