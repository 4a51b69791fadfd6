"""Kernel clustering toolkit.

Given a centered PSD data matrix A and a PSD hypothesis matrix B, the
pipeline computes the geometric constants R(B)^2 and C(B), solves the
sphere-constrained relaxation of the clustering objective, and rounds the
relaxation to an explicit assignment whose certified value interval is
[best rounded value, R(B)^2 * SDP value].  ``cluster`` runs the whole
pipeline and ``analyze_b`` the part that reads B alone.

The package loads lazily (PEP 562): each public name imports its submodule
on first use, so ``import gramclust`` loads no numpy and ``gramclust.cli``
can set the BLAS thread count before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# every public name, in the order of __all__, and the submodule defining it
_SUBMODULES = {
    "SymMatrix": "matrixcore",
    "GramFactor": "matrixcore",
    "validate_psd": "matrixcore",
    "validate_centered": "matrixcore",
    "gram_factorize": "matrixcore",
    "random_centered_psd": "matrixcore",
    "EnclosingBall": "ball",
    "min_enclosing_ball": "ball",
    "radius_squared": "ball",
    "ConicalPartition": "conic",
    "PartitionValue": "conic",
    "partition_moments_mc": "conic",
    "search_cb": "conic",
    "formula_bc": "conic",
    "SdpSolution": "sdp",
    "solve_sdp": "sdp",
    "ascend_from": "sdp",
    "certify_sandwich": "sdp",
    "Clustering": "rounding",
    "clustering_value": "rounding",
    "round_once": "rounding",
    "round_best_of": "rounding",
    "estimate_expectation": "rounding",
    "brute_force_clust": "oracle",
    "brute_force_c3": "oracle",
    "analyze_b": "pipeline",
    "cluster": "pipeline",
    "LabelDistribution": "hardness",
    "OrthonormalBasis": "hardness",
    "build_mu": "hardness",
    "build_basis": "hardness",
    "dictatorship_objective": "hardness",
    "GramclustError": "errors",
    "ParseError": "errors",
    "NotPSD": "errors",
    "NotCentered": "errors",
    "DegenerateB": "errors",
    "DimensionMismatch": "errors",
    "LabelOutOfRange": "errors",
    "TooFewTrials": "errors",
    "TooLarge": "errors",
    "Infeasible": "errors",
    "ZeroMass": "errors",
    "NotConvergedWarning": "errors",
}

__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name: str):
    module = _SUBMODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
