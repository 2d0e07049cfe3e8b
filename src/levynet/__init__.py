"""Stationary workload transforms for Levy-driven feedforward queueing networks."""

from .errors import (
    ConfigError,
    LevynetError,
    RootFindingError,
    SingularFactorError,
    SingularityResolutionError,
    StructuralError,
    UnsupportedRegimeError,
)
from .network import (
    NetworkSpec,
    RateFunction,
    RoutingMatrix,
    ValidationReport,
    build_network,
    structural_sets,
    validate_assumptions,
)
from .models import (
    Brownian,
    CenteredGamma,
    CompoundPoisson,
    DeterministicJob,
    ErlangJob,
    ExponentialJob,
    LevyModel,
    StableSum,
    TailPair,
)
from .partition import RateClassPartition, partition_rates, starred_sets
from .exact import (
    LstEvaluation,
    joint_lst_exact,
    kappa,
    phi_inverse,
    psi,
)
from .limit import (
    LimitConstants,
    LimitLst,
    TandemParams,
    TwoLayerParams,
    closed_form_tandem,
    closed_form_two_layer,
    joint_lst_limit,
    limit_constants,
    psi_limit_inverse,
    scaling_coefficients,
    singular_limit,
)
from .simulate import (
    EmpiricalLst,
    SimConfig,
    convergence_study,
    default_horizon,
    empirical_lst,
    horizon_diagnostic,
    simulate_workload,
)
from .config import load_network, load_run_config

__version__ = "0.1.0"
