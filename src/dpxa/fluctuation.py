"""Detrended covariances per window and their aggregation over scales.

Every estimator is a pick of row pairs from one pass of the window kernel
``detrend.window_products`` per scale: DFA of x is the pair (x, x), DCCA
the pair (x, y), DPXA the pair (x|z, y|z) of force-regressed rows, and
rho(s) the pairs (x, y), (x, x) and (y, y) of one family. The signed mean
product of two detrended profiles in window v is its covariance F_v^2.
Aggregation keeps two views of it:

* the exponent pipeline uses |F_v^2|, giving F(q, s) = [mean_v
  |F_v^2|^(q/2)]^(1/q) for q != 0 and the logarithmic average
  exp(mean_v ln |F_v^2|^(1/2)) at q = 0, so F(q, s) is always defined;
* the signed mean of F_v^2 is kept per scale (``cov2``) because the
  correlation coefficient rho(s) needs the sign to be able to go negative.

With zero force columns the pipeline reduces exactly to detrended
cross-correlation analysis, and with identical inputs to plain detrended
fluctuation analysis; both reductions are bitwise, not statistical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import QGrid, ScaleGrid, _frozen_array, as_series
from .detrend import DetrendConfig, ForceMatrix, series_pair, window_products
from .errors import DegenerateInputError, RankDeficiencyWarning, ShapeError

KIND_DFA = "DFA"
KIND_DCCA = "DCCA"
KIND_DPXA = "DPXA"

# q values this close to zero route to the logarithmic-average branch
Q_ZERO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FluctuationSurface:
    """F(q, s) over the order/scale grids plus the signed per-scale mean
    window covariance at q = 2."""

    scales: ScaleGrid
    orders: QGrid
    F: np.ndarray            # shape (len(orders), len(scales)), >= 0
    cov2: np.ndarray         # shape (len(scales),), signed
    kind: str
    zero_windows: np.ndarray  # per-scale count of exactly degenerate windows

    def __post_init__(self):
        object.__setattr__(self, "F", _frozen_array(self.F))
        object.__setattr__(self, "cov2", _frozen_array(self.cov2))
        object.__setattr__(self, "zero_windows",
                           _frozen_array(self.zero_windows, dtype=int))


@dataclass(frozen=True, eq=False)
class RhoCurve:
    """Scale-dependent detrended correlation coefficient, in [-1, 1]."""

    scales: ScaleGrid
    rho: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen_array(self.rho))


def _force_data(forces: ForceMatrix | None, length: int) -> np.ndarray | None:
    if forces is None:
        return None
    if forces.length != length:
        raise ShapeError(
            f"force length {forces.length} != series length {length}"
        )
    return forces.data if forces.p > 0 else None


def window_covariances(series, forces: ForceMatrix | None, scales: ScaleGrid,
                       cfg: DetrendConfig, pairs,
                       regressed: int = 0) -> list[np.ndarray]:
    """Per-scale (len(pairs), M) window covariances of row pairs of the
    equal-length ``series``; the last ``regressed`` series are regressed
    on the forces (see ``detrend.window_products``). Rank-deficient
    windows raise one RankDeficiencyWarning for the whole call."""
    rows = np.stack([as_series(s).values for s in series])
    scales.check_series_length(rows.shape[1])
    fdata = _force_data(forces, rows.shape[1])
    out, deficient, windows = [], 0, 0
    # one buffer for the windows of every scale: fresh multi-MB arrays go
    # back to the system whenever glibc trims its heap and are faulted in
    # again, up to 32,000 minor faults per 7-row call at N = 2^16
    work = np.empty(rows.size)
    for s in scales.scales:
        f2, bad = window_products(rows, fdata, int(s), cfg, pairs, regressed,
                                  work)
        out.append(f2)
        deficient += bad
        windows += f2.shape[1]
    if deficient:
        warnings.warn(
            f"rank-deficient design in {deficient} of {windows} windows; "
            "minimum-norm solution used",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    return out


def _aggregate(f2: np.ndarray, q: float) -> float:
    absf2 = np.abs(f2)
    if abs(q) <= Q_ZERO_TOL:
        mask = absf2 > 0.0
        return float(np.exp(0.5 * np.mean(np.log(absf2[mask]))))
    with np.errstate(divide="ignore"):
        moments = absf2 ** (q / 2.0)
    return float(np.mean(moments) ** (1.0 / q))


def surface(covs: list[np.ndarray], pair: int, scales: ScaleGrid,
            orders: QGrid, kind: str) -> FluctuationSurface:
    """F(q, s) of one pair of ``window_covariances`` output."""
    qs = orders.orders
    F = np.empty((qs.size, len(scales)))
    cov2 = np.empty(len(scales))
    zeros = np.empty(len(scales), dtype=int)
    for j, s in enumerate(scales.scales):
        f2 = covs[j][pair]
        if np.all(f2 == 0.0):
            raise DegenerateInputError(
                f"all {f2.size} windows are exactly degenerate at scale {s}"
            )
        cov2[j] = f2.mean()
        zeros[j] = int(np.count_nonzero(f2 == 0.0))
        for i, q in enumerate(qs):
            F[i, j] = _aggregate(f2, float(q))
    return FluctuationSurface(scales, orders, F, cov2, kind, zeros)


def rho_values(covs: list[np.ndarray], which, scales: ScaleGrid) -> np.ndarray:
    """rho(s) from the ``window_covariances`` pairs (x, y), (x, x), (y, y),
    given by their three indices ``which``."""
    i_xy, i_xx, i_yy = which
    rho = np.empty(len(scales))
    for j, s in enumerate(scales.scales):
        cov_xy, var_x, var_y = (float(np.mean(covs[j][i]))
                                for i in (i_xy, i_xx, i_yy))
        denom = np.sqrt(var_x * var_y)
        if denom == 0.0:
            raise DegenerateInputError(
                f"constant residuals give a zero denominator at scale {s}"
            )
        value = cov_xy / denom
        if abs(value) > 1.0 + 1e-9:
            raise DegenerateInputError(
                f"correlation {value} outside [-1, 1] at scale {s}"
            )
        rho[j] = min(1.0, max(-1.0, value))
    return rho


def fluctuation_dpxa(x, y, forces: ForceMatrix | None, scales: ScaleGrid,
                     orders: QGrid, cfg: DetrendConfig = DetrendConfig(),
                     kind: str | None = None) -> FluctuationSurface:
    """Full fluctuation surface F(q, s) of two series given external forces.

    ``forces=None`` (or an empty ForceMatrix) computes DCCA; passing the
    same object for x and y computes DFA.
    """
    xs, ys = series_pair(x, y)
    same = y is x or y is xs
    partial = _force_data(forces, len(xs)) is not None
    if kind is None:
        kind = KIND_DPXA if partial else (KIND_DFA if same else KIND_DCCA)
    series, pair = ((xs,), (0, 0)) if same else ((xs, ys), (0, 1))
    covs = window_covariances(series, forces, scales, cfg, (pair,),
                              regressed=len(series) if partial else 0)
    return surface(covs, 0, scales, orders, kind)


def fluctuation_dcca(x, y, scales: ScaleGrid, orders: QGrid,
                     cfg: DetrendConfig = DetrendConfig()) -> FluctuationSurface:
    """Detrended cross-correlation fluctuations (no external forces)."""
    return fluctuation_dpxa(x, y, None, scales, orders, cfg, kind=KIND_DCCA)


def fluctuation_dfa(x, scales: ScaleGrid, orders: QGrid,
                    cfg: DetrendConfig = DetrendConfig()) -> FluctuationSurface:
    """Detrended fluctuation analysis of a single series."""
    xs = as_series(x)
    return fluctuation_dpxa(xs, xs, None, scales, orders, cfg, kind=KIND_DFA)


def rho_curve(x, y, forces: ForceMatrix | None, scales: ScaleGrid,
              cfg: DetrendConfig = DetrendConfig()) -> RhoCurve:
    """Detrended (partial) cross-correlation coefficient per scale.

    The numerator is the signed mean window covariance of the pair; the
    denominators are the second-order fluctuations of each series run
    through the same force regression. Cauchy-Schwarz bounds the result
    to [-1, 1].
    """
    xs, ys = series_pair(x, y)
    partial = _force_data(forces, len(xs)) is not None
    covs = window_covariances((xs, ys), forces, scales, cfg,
                              ((0, 1), (0, 0), (1, 1)),
                              regressed=2 if partial else 0)
    return RhoCurve(scales, rho_values(covs, (0, 1, 2), scales),
                    KIND_DPXA if partial else KIND_DCCA)


def rho_dcca(x, y, scales: ScaleGrid,
             cfg: DetrendConfig = DetrendConfig()) -> RhoCurve:
    """DCCA coefficient: rho_curve without external forces."""
    return rho_curve(x, y, None, scales, cfg)
