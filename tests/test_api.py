"""The public names of the levynet package.

A name added to or removed from `levynet/__init__.py` must be added to or
removed from PUBLIC_NAMES too; a removal also gets a line in CHANGES.md.
"""

import ast
import types
from pathlib import Path

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


def test_reference_oracle_imports_only_model_classes():
    # tests/reference.py checks both transforms at 60 digits; it stays an
    # independent check only while it shares no code with exact, limit,
    # roots or partition, so from levynet it may import model classes alone
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "levynet"]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            if node.module.split(".")[0] == "levynet":
                imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib"), node.id
    assert imported, "the oracle reads the input models from levynet"
    for module, name in imported:
        assert module in ("levynet", "levynet.models") and name is not None, (module, name)
        value = getattr(levynet.models, name)
        assert isinstance(value, type) and value.__module__ == "levynet.models", name
