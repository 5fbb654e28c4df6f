"""Detrended covariances per window and their aggregation over scales.

Every estimator is a pick of row pairs from one call of the window kernel
``detrend.window_products``, which covers every scale. Its stack holds k
distinct series with the force columns among them, and pair index k + i
names the residual of series i on the forces: DFA of x is the pair
(x, x), DCCA the pair (x, y), DPXA the pair (x|z, y|z) of residuals, and
rho(s) the pairs (x, y), (x, x) and (y, y) of one family. The public
functions append a ``ForceMatrix``'s columns to the stack as rows. The
signed mean product of two detrended profiles in window v is its
covariance F_v^2. ``window_covariances`` returns them as one
``WindowCovariances`` record, whose ``sums`` and ``means`` reduce per scale.
``surface`` turns every pair of the record into its F(q, s) surface, with
one pass over the windows of all pairs and scales per order q.
Aggregation keeps two views of F_v^2:

* the exponent pipeline uses |F_v^2|, giving F(q, s) = [mean_v
  |F_v^2|^(q/2)]^(1/q) for q != 0 and the logarithmic average
  exp(mean_v ln |F_v^2|^(1/2)) at q = 0. For q <= 0 the mean runs over
  the live windows, those with F_v^2 != 0: one exactly degenerate window
  would make it infinite. A scale without a live window raises, so
  F(q, s) is always defined and positive;
* the signed mean of F_v^2 is kept per scale (``cov2``) because the
  correlation coefficient rho(s) needs the sign to be able to go negative.

A DPXA surface or curve counts per scale the windows whose force design
is rank deficient; other kinds regress no row and count zeros.

Without forces the pipeline reduces exactly to detrended cross-correlation
analysis, and with identical inputs to plain detrended fluctuation
analysis; both reductions are bitwise, not statistical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import QGrid, ScaleGrid, _frozen_array, as_series
from .detrend import DetrendConfig, ForceMatrix, WindowCovariances, \
    window_products
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
    deficient_windows: np.ndarray  # per-scale count of rank-deficient ones

    def __post_init__(self):
        object.__setattr__(self, "F", _frozen_array(self.F))
        object.__setattr__(self, "cov2", _frozen_array(self.cov2))
        for name in ("zero_windows", "deficient_windows"):
            object.__setattr__(self, name,
                               _frozen_array(getattr(self, name), dtype=int))


@dataclass(frozen=True, eq=False)
class RhoCurve:
    """Scale-dependent detrended correlation coefficient, in [-1, 1]."""

    scales: ScaleGrid
    rho: np.ndarray
    kind: str
    deficient_windows: np.ndarray  # per-scale count of rank-deficient ones

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen_array(self.rho))
        object.__setattr__(self, "deficient_windows",
                           _frozen_array(self.deficient_windows, dtype=int))


def window_covariances(series, scales: ScaleGrid, cfg: DetrendConfig, pairs,
                       forces=()) -> WindowCovariances:
    """The window covariances at every scale of pairs of rows of the stack
    of k equal-length ``series``, of which ``forces`` index the force
    columns: pair index i < k names series i, and k + i its residual on
    the forces (see ``detrend.window_products``). Rank-deficient windows
    raise one RankDeficiencyWarning for the whole call."""
    rows = [as_series(s).values for s in series]
    lengths = {row.size for row in rows}
    if len(lengths) > 1:
        raise ShapeError(f"series lengths differ: {sorted(lengths)}")
    scales.check_series_length(rows[0].size)
    covs = window_products(rows, scales.scales, cfg, pairs, forces)
    if covs.deficient.any():
        warnings.warn(
            f"rank-deficient design in {covs.deficient.sum()} of "
            f"{covs.windows.sum()} windows; minimum-norm solution used",
            RankDeficiencyWarning,
            stacklevel=3,
        )
    return covs


def _with_forces(series: tuple, forces: ForceMatrix | None):
    """The stack of ``series`` followed by the force columns as rows, the
    indices of those rows, and the offset that names each series in a
    pair: k, to name its residual, when there are forces."""
    if forces is None:
        return series, (), 0
    k = len(series) + forces.p
    return series + tuple(forces.data.T), tuple(range(len(series), k)), k


def surface(covs: WindowCovariances, scales: ScaleGrid, orders: QGrid,
            kinds) -> list[FluctuationSurface]:
    """F(q, s) of every pair of a ``window_covariances`` record, one
    surface per pair, labelled by ``kinds``."""
    absf2 = np.abs(covs.f2)
    nonzero = absf2 > 0.0
    live = covs.sums(nonzero)
    if not live.all():
        j = int(np.flatnonzero(~live.all(axis=0))[0])
        raise DegenerateInputError(
            f"all {covs.windows[j]} windows are exactly degenerate at scale "
            f"{scales.scales[j]}"
        )
    qs = orders.orders.tolist()
    F = np.empty((len(kinds), len(qs), len(scales)))
    for i, q in enumerate(qs):
        with np.errstate(divide="ignore"):
            if abs(q) <= Q_ZERO_TOL:
                # the logarithmic average skips exactly degenerate windows
                logs = np.where(nonzero, np.log(absf2), 0.0)
                F[:, i] = np.exp(0.5 * covs.sums(logs) / live)
            else:
                # and so does the mean for q < 0, which one of them would
                # make infinite
                powers = np.where(nonzero, absf2 ** (q / 2.0), 0.0)
                F[:, i] = (covs.sums(powers) / (live if q < 0 else
                                                covs.windows)) ** (1.0 / q)
    cov2 = covs.means()
    return [FluctuationSurface(scales, orders, F[n], cov2[n], kind,
                               covs.windows - live[n],
                               covs.deficient * (kind == KIND_DPXA))
            for n, kind in enumerate(kinds)]


def rho_values(means: np.ndarray, which, scales: ScaleGrid) -> np.ndarray:
    """rho(s) from the (pairs, scales) mean covariances ``means``: the rows
    ``which`` of the pairs (x, y), (x, x) and (y, y)."""
    cov_xy, var_x, var_y = means[list(which)]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.sqrt(var_x * var_y)
        rho = cov_xy / denom
    # a zero denominator leaves an infinite or NaN rho, caught here too
    bad = np.flatnonzero(~(np.abs(rho) <= 1.0 + 1e-9))
    if bad.size:
        j = bad[0]
        what = (f"correlation {float(rho[j])} outside [-1, 1]" if denom[j]
                else "constant residuals give a zero denominator")
        raise DegenerateInputError(f"{what} at scale {scales.scales[j]}")
    return np.clip(rho, -1.0, 1.0)


def fluctuation_dpxa(x, y, forces: ForceMatrix | None, scales: ScaleGrid,
                     orders: QGrid, cfg: DetrendConfig = DetrendConfig(),
                     kind: str | None = None) -> FluctuationSurface:
    """Full fluctuation surface F(q, s) of two series given external forces.

    ``forces=None`` computes DCCA; passing the same object for x and y
    computes DFA.
    """
    xs, ys = as_series(x), as_series(y)
    same = y is x or y is xs
    if kind is None:
        kind = KIND_DPXA if forces is not None else \
            (KIND_DFA if same else KIND_DCCA)
    stack, zrows, base = _with_forces((xs,) if same else (xs, ys), forces)
    pair = (base, base) if same else (base, base + 1)
    covs = window_covariances(stack, scales, cfg, (pair,), zrows)
    return surface(covs, scales, orders, (kind,))[0]


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
    stack, zrows, b = _with_forces((as_series(x), as_series(y)), forces)
    covs = window_covariances(stack, scales, cfg,
                              ((b, b + 1), (b, b), (b + 1, b + 1)), zrows)
    return RhoCurve(scales, rho_values(covs.means(), (0, 1, 2), scales),
                    KIND_DCCA if forces is None else KIND_DPXA,
                    covs.deficient)


def rho_dcca(x, y, scales: ScaleGrid,
             cfg: DetrendConfig = DetrendConfig()) -> RhoCurve:
    """DCCA coefficient: rho_curve without external forces."""
    return rho_curve(x, y, None, scales, cfg)
