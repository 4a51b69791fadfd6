"""Kernel clustering toolkit.

Given a centered PSD data matrix A and a PSD hypothesis matrix B, the
pipeline computes the geometric constants R(B)^2 and C(B), solves the
sphere-constrained relaxation of the clustering objective, and rounds the
relaxation to an explicit assignment whose certified value interval is
[best rounded value, R(B)^2 * SDP value].  ``cluster`` runs the whole
pipeline and ``analyze_b`` the part that reads B alone.
"""

from .ball import EnclosingBall, min_enclosing_ball, radius_squared
from .conic import (
    ConicalPartition,
    PartitionValue,
    formula_bc,
    partition_moments_mc,
    search_cb,
)
from .errors import (
    DegenerateB,
    DimensionMismatch,
    GramclustError,
    Infeasible,
    LabelOutOfRange,
    NotCentered,
    NotConvergedWarning,
    NotPSD,
    ParseError,
    TooFewTrials,
    TooLarge,
    ZeroMass,
)
from .hardness import (
    LabelDistribution,
    OrthonormalBasis,
    build_basis,
    build_mu,
    dictatorship_objective,
)
from .matrixcore import (
    GramFactor,
    SymMatrix,
    gram_factorize,
    random_centered_psd,
    validate_centered,
    validate_psd,
)
from .oracle import brute_force_c3, brute_force_clust
from .pipeline import analyze_b, cluster
from .rounding import (
    Clustering,
    clustering_value,
    estimate_expectation,
    round_best_of,
    round_once,
)
from .sdp import SdpSolution, ascend_from, certify_sandwich, solve_sdp

__version__ = "0.1.0"

__all__ = [
    "SymMatrix",
    "GramFactor",
    "validate_psd",
    "validate_centered",
    "gram_factorize",
    "random_centered_psd",
    "EnclosingBall",
    "min_enclosing_ball",
    "radius_squared",
    "ConicalPartition",
    "PartitionValue",
    "partition_moments_mc",
    "search_cb",
    "formula_bc",
    "SdpSolution",
    "solve_sdp",
    "ascend_from",
    "certify_sandwich",
    "Clustering",
    "clustering_value",
    "round_once",
    "round_best_of",
    "estimate_expectation",
    "brute_force_clust",
    "brute_force_c3",
    "analyze_b",
    "cluster",
    "LabelDistribution",
    "OrthonormalBasis",
    "build_mu",
    "build_basis",
    "dictatorship_objective",
    "GramclustError",
    "ParseError",
    "NotPSD",
    "NotCentered",
    "DegenerateB",
    "DimensionMismatch",
    "LabelOutOfRange",
    "TooFewTrials",
    "TooLarge",
    "Infeasible",
    "ZeroMass",
    "NotConvergedWarning",
    "__version__",
]
