"""Kernel backfitting for bivariate additive models, with convergence
certification of the iteration via gap conditions, Markov-chain
regularity of the smoother matrices, and spectral radii of the centered
smoother product."""

__version__ = "0.1.0"

from .fitting import (
    BackfitNonConvergenceError,
    FitResult,
    SingularSystemError,
    backfit_direct,
    backfit_iterative,
    normal_equation_residual,
    predict,
)
from .kernels import (
    BandwidthSpec,
    ConstantBandwidth,
    Kernel,
    KNearestBandwidth,
    PerPointBandwidth,
    RateBandwidth,
    parse_bandwidth,
)
from .simulate import (
    BivariateNormal,
    GapBound,
    IndependentUniform,
    MonteCarloReport,
    SimSpec,
    density_ratio_sup,
    gap_exceedance_bound,
    generate,
    max_gap,
    run_monte_carlo,
    uniform_max_gap_exceedance,
)
from .smoothers import Dataset, SmootherPair, build_pair, build_smoother, center
from .spectral import (
    ConvergenceCertificate,
    GapReport,
    SpectralReport,
    Verdict,
    certify,
    check_gap_conditions,
    check_regularity,
    spectral_radius,
)

__all__ = [
    "__version__",
    "Kernel",
    "BandwidthSpec",
    "ConstantBandwidth",
    "PerPointBandwidth",
    "KNearestBandwidth",
    "RateBandwidth",
    "parse_bandwidth",
    "Dataset",
    "SmootherPair",
    "build_smoother",
    "build_pair",
    "center",
    "GapReport",
    "SpectralReport",
    "Verdict",
    "ConvergenceCertificate",
    "check_gap_conditions",
    "check_regularity",
    "spectral_radius",
    "certify",
    "FitResult",
    "BackfitNonConvergenceError",
    "SingularSystemError",
    "backfit_iterative",
    "backfit_direct",
    "normal_equation_residual",
    "predict",
    "SimSpec",
    "IndependentUniform",
    "BivariateNormal",
    "GapBound",
    "MonteCarloReport",
    "generate",
    "max_gap",
    "gap_exceedance_bound",
    "uniform_max_gap_exceedance",
    "run_monte_carlo",
    "density_ratio_sup",
]
