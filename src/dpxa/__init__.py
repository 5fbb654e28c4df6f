"""Detrended partial cross-correlation analysis toolkit.

Estimators for long-range (cross-)correlations of nonstationary series --
DFA, DCCA, DPXA and their multifractal extensions -- together with exact
generators for fractional Gaussian noise, bivariate FBM increments, and
binomial cascade measures, and a Monte-Carlo harness that validates the
estimators against closed-form ground truths.
"""

from .core import (
    QGrid,
    ScaleGrid,
    TimeSeries,
    as_series,
)
from .detrend import DetrendConfig, ForceMatrix
from .errors import (
    CoherenceError,
    ConfigError,
    DataError,
    DegenerateInputError,
    DpxaError,
    EmptyInputError,
    GenerationError,
    IngestionError,
    InsufficientScalesError,
    InvalidScaleError,
    ShapeError,
    SizeError,
    WindowTooSmallError,
)
from .fluctuation import (
    FluctuationSurface,
    RhoCurve,
    fluctuation_dcca,
    fluctuation_dfa,
    fluctuation_dpxa,
    rho_curve,
    rho_dcca,
)
from .generators import (
    BfbmSpec,
    BinomialSpec,
    ContaminationSpec,
    FgnSpec,
    contaminate,
    derive_seed,
    gen_bfbm_increments,
    gen_binomial,
    gen_fgn,
)
from .scaling import (
    ScalingFit,
    binomial_hurst,
    binomial_mass_exponent,
    fit_exponent,
    full_fit,
    joint_binomial_mass_exponent,
    legendre,
    mass_exponents,
)
from .experiments import (
    MfSpec,
    RhoSpec,
    SweepSpec,
    run_mf_recovery,
    run_rho_comparison,
    run_sweep,
)

__version__ = "0.1.0"
