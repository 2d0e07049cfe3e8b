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
    # limit transform (its displayed-formula oracles are tests/oracles.py)
    "LimitLst",
    "joint_lst_limit",
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


def _levynet_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every levynet import in the file, name None for `import levynet...`."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "levynet"]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            if node.module.split(".")[0] == "levynet":
                imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib"), node.id
    return imported


def test_reference_oracle_imports_only_model_classes():
    # tests/reference.py checks both transforms at 60 digits; it stays an
    # independent check only while it shares no code with exact, limit,
    # roots or partition, so from levynet it may import model classes alone
    imported = _levynet_imports(Path(__file__).parent / "reference.py")
    assert imported, "the oracle reads the input models from levynet"
    for module, name in imported:
        assert module in ("levynet", "levynet.models") and name is not None, (module, name)
        value = getattr(levynet.models, name)
        assert isinstance(value, type) and value.__module__ == "levynet.models", name


def test_formula_oracles_share_no_code_with_the_limit():
    # tests/oracles.py evaluates the paper's displayed limit formulas; it
    # checks joint_lst_limit only while it uses neither exact nor limit,
    # nor anything built on _class_factors
    imported = _levynet_imports(Path(__file__).parent / "oracles.py")
    assert imported, "the oracles read networks and partitions from levynet"
    for module, name in imported:
        assert name is not None, module
        assert module not in ("levynet.exact", "levynet.limit"), (module, name)
        assert name not in ("joint_lst_limit", "LimitLst", "singular_limit", "convergence_study"), name
        if module == "levynet":
            assert getattr(levynet, name).__module__ not in ("levynet.exact", "levynet.limit"), name


def test_moved_oracles_are_gone_from_the_package():
    moved = (
        "psi_limit_inverse",
        "ScalingCoefficients",
        "scaling_coefficients",
        "TwoLayerParams",
        "closed_form_two_layer",
        "TandemParams",
        "closed_form_tandem",
        "kappa_max_ancestor",
        "KAPPA_FORMS",
    )
    for module in (levynet.exact, levynet.limit):
        assert not [name for name in moved if hasattr(module, name)], module.__name__


def test_no_source_line_is_wider_than_121_characters():
    # a line count that falls by cramming statements onto one line has not
    # shrunk the code
    for path in sorted(Path(levynet.__file__).parent.glob("*.py")):
        wide = [i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 121]
        assert not wide, f"{path.name}: lines {wide}"
