"""Set-valued systemic value-at-risk for interbank clearing networks.

Pipeline: generate a core-periphery network, sample correlated heavy-tailed
cash-flow scenarios, clear each scenario through the interbank payment
mechanism, and approximate the set of group capital injections that keep the
empirical shortfall probability below a chosen level.
"""

from .clearing import (
    ClearingPolytope,
    ClearingResult,
    aggregate_en,
    aggregate_en_many,
    clearing_fixed_point,
    clearing_lp,
    en_supergradient,
    enumerate_clearing_vectors,
)
from .mip import MipSolution, ScenarioMip, branch_and_bound
from .network import (
    BollobasParams,
    DirectedMultigraph,
    FinancialNetwork,
    Grouping,
    IntergroupLiabilityMatrix,
    NetworkStats,
    build_liabilities,
    core_periphery_grouping,
    generate_bollobas,
    network_stats,
)
from .optim import LinearProgram, LpResult, QpResult, min_norm_qp, solve_lp
from .risk import CapitalBox, MembershipResult, RiskSpec, membership, z_bounds
from .saa import (
    ApproxSet,
    Grid,
    approximate_by_clearing,
    approximate_by_norm_min,
    convergence_study,
    distance_probe,
    hausdorff_distance,
    insensitive_saa,
)
from .scalarize import (
    ScalarizationResult,
    bisection_unit,
    ideal_point,
    norm_min,
    weighted_sum,
)
from .shocks import ScenarioSet, ShockParams, lomax_cdf, lomax_mean, lomax_ppf, sample_shocks
from .util import CapacityError, SolverError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "ApproxSet",
    "BollobasParams",
    "CapacityError",
    "CapitalBox",
    "ClearingPolytope",
    "ClearingResult",
    "DirectedMultigraph",
    "FinancialNetwork",
    "Grid",
    "Grouping",
    "IntergroupLiabilityMatrix",
    "LinearProgram",
    "LpResult",
    "MembershipResult",
    "MipSolution",
    "NetworkStats",
    "QpResult",
    "RiskSpec",
    "ScalarizationResult",
    "ScenarioMip",
    "ScenarioSet",
    "ShockParams",
    "SolverError",
    "ValidationError",
    "aggregate_en",
    "aggregate_en_many",
    "approximate_by_clearing",
    "approximate_by_norm_min",
    "bisection_unit",
    "branch_and_bound",
    "build_liabilities",
    "clearing_fixed_point",
    "clearing_lp",
    "convergence_study",
    "core_periphery_grouping",
    "distance_probe",
    "en_supergradient",
    "enumerate_clearing_vectors",
    "generate_bollobas",
    "hausdorff_distance",
    "ideal_point",
    "insensitive_saa",
    "lomax_cdf",
    "lomax_mean",
    "lomax_ppf",
    "membership",
    "min_norm_qp",
    "network_stats",
    "norm_min",
    "sample_shocks",
    "solve_lp",
    "weighted_sum",
    "z_bounds",
]
