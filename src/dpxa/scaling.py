"""Log-log regression of fluctuation functions and the multifractal
formalism built on it: exponents h(q), mass exponents tau(q) = q*h(q) - 1,
and the Legendre transform to the singularity spectrum (alpha, f(alpha)).

The support dimension is fixed at 1 (time series on a line), so tau(0) is
always -1 and the spectrum apex sits at f = 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import QGrid, _frozen_array
from .errors import (
    ConfigError,
    ExcludedScaleWarning,
    InsufficientScalesError,
    SpectrumValidityWarning,
)
from .fluctuation import FluctuationSurface

SUPPORT_DIMENSION = 1.0
MIN_FIT_SCALES = 4


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Fitted exponents per moment order, with fit diagnostics.

    ``alpha`` and ``f_alpha`` are NaN at the two endpoint orders, where the
    central difference is undefined.
    """

    orders: QGrid
    h: np.ndarray
    h_stderr: np.ndarray
    r_squared: np.ndarray
    fit_range: tuple[int, int]
    tau: np.ndarray | None = None
    alpha: np.ndarray | None = None
    f_alpha: np.ndarray | None = None

    def __post_init__(self):
        for name in ("h", "h_stderr", "r_squared", "tau", "alpha", "f_alpha"):
            arr = getattr(self, name)
            if arr is not None:
                object.__setattr__(self, name, _frozen_array(arr))


def check_fit_scales(count: int, lo: int, hi: int) -> None:
    """Raise unless ``count`` scales inside [lo, hi] suffice for a fit."""
    if count < MIN_FIT_SCALES:
        raise InsufficientScalesError(
            f"only {count} scales inside [{lo}, {hi}]; "
            f"need at least {MIN_FIT_SCALES}"
        )


def fit_exponent(surface: FluctuationSurface,
                 fit_range: tuple[int, int] | None = None) -> ScalingFit:
    """Per-q slope of ln F(q, s) against ln s over the fit range.

    Scales where F(q, s) is zero or non-finite are excluded with a warning;
    fewer than four usable scales is an error.
    """
    scales = surface.scales.scales
    if fit_range is None:
        lo, hi = int(scales.min()), int(scales.max())
    else:
        lo, hi = int(fit_range[0]), int(fit_range[1])
        if lo > hi:
            raise ConfigError(f"empty fit range [{lo}, {hi}]")
    in_range = (scales >= lo) & (scales <= hi)
    check_fit_scales(int(in_range.sum()), lo, hi)
    h, stderr, r2 = fit_slopes(scales, surface.F, surface.orders.orders,
                               in_range)
    return ScalingFit(surface.orders, h, stderr, r2, (lo, hi))


def fit_slopes(scales: np.ndarray, F: np.ndarray, qs,
               in_range: np.ndarray):
    """Slopes of ln F against ln s for the rows of F (rows, scales), each
    row over the scales of the ``in_range`` mask where it is positive and
    finite; ``qs`` holds each row's order q, for the messages. Returns the
    slopes, their standard errors and R^2.

    Excluded points raise an ExcludedScaleWarning per row; fewer than four
    usable points in a row is an error.
    """
    usable = in_range & np.isfinite(F) & (F > 0.0)
    counts = usable.sum(axis=1)
    for q, n in zip(qs, counts):
        dropped = int(in_range.sum()) - int(n)
        if dropped:
            warnings.warn(
                f"excluded {dropped} non-positive F(q={q:g}, s) points "
                "from the fit",
                ExcludedScaleWarning,
                stacklevel=3,
            )
        if n < MIN_FIT_SCALES:
            raise InsufficientScalesError(
                f"only {int(n)} usable scales for q={q:g}"
            )
    # ordinary least squares of ln F on ln s for every row at once, each
    # over its own usable scales; same estimates as a per-row linregress
    with np.errstate(divide="ignore", invalid="ignore"):
        log_f = np.where(usable, np.log(F), 0.0)
    log_s = np.where(usable, np.log(scales.astype(float)), 0.0)
    dx = np.where(usable, log_s - (log_s.sum(1) / counts)[:, None], 0.0)
    dy = np.where(usable, log_f - (log_f.sum(1) / counts)[:, None], 0.0)
    sxx, sxy, syy = (dx * dx).sum(1), (dx * dy).sum(1), (dy * dy).sum(1)
    h = sxy / sxx
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0) ** 2
    stderr = np.sqrt((1.0 - r2) * syy / sxx / (counts - 2))
    return h, stderr, r2


def mass_exponents(fit: ScalingFit) -> ScalingFit:
    """Fill tau(q) = q*h(q) - 1."""
    tau = fit.orders.orders * fit.h - SUPPORT_DIMENSION
    return replace(fit, tau=tau)


def legendre(fit: ScalingFit) -> ScalingFit:
    """Fill the singularity spectrum via central differences on tau(q).

    alpha = dtau/dq at interior orders, f = q*alpha - tau. A non-monotonic
    alpha (spectrum folding back on itself) raises a warning, not an error.
    """
    if fit.tau is None:
        raise ConfigError("mass exponents must be computed before legendre")
    qs = fit.orders.orders
    if qs.size < 3:
        raise ConfigError(
            f"legendre transform needs >= 3 orders, got {qs.size}"
        )
    alpha = np.full(qs.size, np.nan)
    alpha[1:-1] = (fit.tau[2:] - fit.tau[:-2]) / (qs[2:] - qs[:-2])
    f_alpha = np.full(qs.size, np.nan)
    f_alpha[1:-1] = qs[1:-1] * alpha[1:-1] - fit.tau[1:-1]
    interior = alpha[1:-1]
    if np.any(np.diff(interior) > 0):
        warnings.warn(
            "singularity strength is not non-increasing in q; "
            "the spectrum may be invalid",
            SpectrumValidityWarning,
            stacklevel=2,
        )
    return replace(fit, alpha=alpha, f_alpha=f_alpha)


def full_fit(surface: FluctuationSurface,
             fit_range: tuple[int, int] | None = None) -> ScalingFit:
    """fit_exponent -> mass_exponents -> legendre (legendre only when the
    grid has at least three orders)."""
    fit = mass_exponents(fit_exponent(surface, fit_range))
    if len(fit.orders) >= 3:
        fit = legendre(fit)
    return fit


# --------------------------------------------------------------------------- #
# closed-form references for the binomial cascade

def binomial_mass_exponent(q, p: float):
    """tau(q) = -log2(p^q + (1-p)^q) of the binomial measure."""
    q = np.asarray(q, dtype=float)
    return -np.log2(p ** q + (1.0 - p) ** q)


def binomial_hurst(q, p: float):
    """h(q) = (1 + tau(q)) / q with the q -> 0 limit filled in."""
    q = np.asarray(q, dtype=float)
    limit = -0.5 * (np.log2(p) + np.log2(1.0 - p))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (1.0 + binomial_mass_exponent(q, p)) / q
    return np.where(np.abs(q) < 1e-12, limit, h)


def joint_binomial_mass_exponent(q, p_x: float, p_y: float):
    """Reference mass exponents for a pair of aligned binomial measures:
    q * (h_x(q) + h_y(q)) / 2 - 1."""
    q = np.asarray(q, dtype=float)
    h_mean = 0.5 * (binomial_hurst(q, p_x) + binomial_hurst(q, p_y))
    return q * h_mean - SUPPORT_DIMENSION
