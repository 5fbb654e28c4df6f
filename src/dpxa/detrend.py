"""Per-window removal of external forces and local trends: the window
kernel behind every estimator.

DFA, DCCA, DPXA and rho(s) all take the same steps in each size-s box:
remove the force regression from the increments, cumulate the residuals
into a disturbance profile, remove its local trend (polynomial fit or
centred moving average of length s) and average products of two detrended
profiles. ``window_products`` takes these steps once per scale for a whole
stack of series. The forces go before the cumsum: with an intercept the
window residual is (x - mean x) - b (z - mean z), with b from the p x p
centred force moments (Cholesky; a division for one force). Removing b z
after the cumsum, from Gram products of detrended profiles, subtracts
nearly equal large numbers: on a binomial measure masked by 3 z it is off
by 8% at s = 16. Rank-deficient windows fall back to a least-squares
solve, whose residual is unique even where b is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, as_series, _frozen_array
from .errors import ConfigError, DataError, ShapeError, WindowTooSmallError

POLYNOMIAL = "polynomial"
MOVING_AVERAGE = "moving_average"

# Cholesky pivots below this share of their column's centred moment mark
# force columns as collinear: sin^2 of the angle between a column and the
# span of the others, below which the moment solve loses too many digits
_COLLINEAR = 1e-6
# a centred force column whose sum of squares is below this share of the
# raw one is constant within the window up to rounding
_VANISHING = 1e-24


@dataclass(frozen=True, eq=False)
class ForceMatrix:
    """The p external-force series as a (T, p) column matrix; p may be 0."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ShapeError(f"force matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ShapeError("force matrix has no rows")
        if not np.all(np.isfinite(arr)):
            raise DataError("force matrix contains non-finite values")
        object.__setattr__(self, "data", _frozen_array(arr))

    @classmethod
    def from_series(cls, columns) -> "ForceMatrix":
        series = [as_series(c) for c in columns]
        if not series:
            raise ShapeError("from_series needs at least one column; use "
                             "ForceMatrix.empty for p = 0")
        lengths = {len(s) for s in series}
        if len(lengths) > 1:
            raise ShapeError(f"force columns differ in length: {sorted(lengths)}")
        return cls(np.column_stack([s.values for s in series]))

    @classmethod
    def empty(cls, length: int) -> "ForceMatrix":
        return cls(np.empty((length, 0)))

    @property
    def length(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DetrendConfig:
    """Detrending choices: trend model of the profile and force-regression
    intercept.

    ``poly_order`` applies to the polynomial method and must satisfy
    poly_order <= s - 2 at every analysis scale s. The force regression
    includes an intercept column by default so that additive offsets in the
    contamination model are absorbed; set ``with_intercept=False`` to
    regress on the forces alone.
    """

    method: str = POLYNOMIAL
    poly_order: int = 1
    with_intercept: bool = True

    def __post_init__(self):
        if self.method not in (POLYNOMIAL, MOVING_AVERAGE):
            raise ConfigError(f"unknown detrending method {self.method!r}")
        if self.poly_order < 0:
            raise ConfigError(f"poly_order must be >= 0, got {self.poly_order}")

    def check_scale(self, s: int) -> None:
        if self.method == POLYNOMIAL and self.poly_order >= s - 1:
            raise ConfigError(
                f"poly_order {self.poly_order} too large for scale {s} "
                f"(need poly_order <= s - 2)"
            )


# --------------------------------------------------------------------------- #
# window kernel: all windows of a stack of series at one scale

def _poly_basis(s: int, order: int) -> np.ndarray:
    # abscissa scaled to [-1, 1] so high orders stay well conditioned
    t = np.arange(s, dtype=float)
    half = max((s - 1) / 2.0, 1.0)
    t = (t - (s - 1) / 2.0) / half
    return np.vander(t, order + 1, increasing=True)


def _moving_average(profiles: np.ndarray, span: int) -> np.ndarray:
    """Centered moving average of length ``span`` along axis 1, with shrunken
    one-sided averages at the box edges."""
    M, s = profiles.shape
    left = (span - 1) // 2
    right = span - 1 - left
    csum = np.zeros((M, s + 1))
    np.cumsum(profiles, axis=1, out=csum[:, 1:])
    k = np.arange(s)
    lo = np.maximum(k - left, 0)
    hi = np.minimum(k + right + 1, s)
    trend = csum[:, hi]
    trend -= csum[:, lo]
    trend /= hi - lo
    return trend


def _solve_moments(C: np.ndarray, B: np.ndarray) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Cholesky solve of C b = B in every window, for C (M, p, p) and B
    (M, p, r); with p = 1 it is a division. Also returns which windows
    pass the pivot guard; the others' coefficients are meaningless."""
    p = C.shape[1]
    L = np.zeros_like(C)
    ok = np.ones(C.shape[0], dtype=bool)
    for j in range(p):
        pivot = C[:, j, j] - np.einsum("mk,mk->m", L[:, j, :j], L[:, j, :j])
        ok &= pivot > _COLLINEAR * C[:, j, j]
        L[:, j, j] = np.sqrt(np.where(ok, pivot, 1.0))
        L[:, j + 1:, j] = (C[:, j + 1:, j] - np.einsum(
            "mik,mk->mi", L[:, j + 1:, :j], L[:, j, :j])) / L[:, j, j, None]
    b = B.copy()
    for j in range(p):  # L y = B
        b[:, j] -= np.einsum("mk,mkr->mr", L[:, j, :j], b[:, :j])
        b[:, j] /= L[:, j, j, None]
    for j in reversed(range(p)):  # L^T b = y
        b[:, j] -= np.einsum("mk,mkr->mr", L[:, j + 1:, j], b[:, j + 1:])
        b[:, j] /= L[:, j, j, None]
    return b, ok


def _remove_forces(A: np.ndarray, Zw: np.ndarray, with_intercept: bool) -> int:
    """Replace the increments A (r, M, s) by their OLS residuals on the
    force block Zw (M, s, p) of each window, in place; A is already
    centred when ``with_intercept``. Returns the number of rank-deficient
    windows."""
    r, M, s = A.shape
    p = Zw.shape[2]
    d = p + int(with_intercept)
    if s <= d:
        raise WindowTooSmallError(
            f"window of size {s} cannot fit {d} regression columns"
        )
    Zc = Zw - Zw.mean(axis=1, keepdims=True) if with_intercept else Zw
    C = np.einsum("msi,msj->mij", Zc, Zc)
    b, ok = _solve_moments(C, np.einsum("msi,rms->mir", Zc, A))
    # a force that is constant within a window (up to rounding) vanishes
    # once centred: that column duplicates the intercept
    diag = np.diagonal(C, axis1=1, axis2=2)
    raw = np.einsum("msi,msi->mi", Zw, Zw) if with_intercept else diag
    ok &= np.all(diag > _VANISHING * raw, axis=1)
    A -= np.einsum("msi,mir->rms", Zc, np.where(ok[:, None, None], b, 0.0))
    deficient = 0
    for m in np.flatnonzero(~ok):
        # the residual is unique even where b is not
        design = np.column_stack([np.ones(s), Zw[m]]) if with_intercept \
            else Zw[m]
        beta, _, rank, _ = np.linalg.lstsq(design, A[:, m].T, rcond=None)
        A[:, m] -= (design @ beta).T
        deficient += int(rank < d)
    return deficient


def window_products(rows: np.ndarray, forces: np.ndarray | None, size: int,
                    cfg: DetrendConfig, pairs, regressed: int = 0,
                    work: np.ndarray | None = None
                    ) -> tuple[np.ndarray, int]:
    """Window covariances of several profile sets at one scale.

    ``rows`` is a (k, T) stack of series; each row is one profile set. In
    every size-s window the increments are centred (with an intercept),
    the last ``regressed`` rows are replaced by their residuals on the
    force columns ``forces`` (T, p), and the whole stack is cumulated and
    detrended in one pass. Returns the (len(pairs), M) signed mean
    products of the detrended profiles of each row pair (i, j), and the
    number of windows whose force design is rank deficient. Trailing
    points beyond M*s are excluded. The windows are worked on in
    ``work``, a float buffer of k*T elements, when one is given: a caller
    looping over scales passes the same buffer to every call.
    """
    k, T = rows.shape
    M = T // size
    cfg.check_scale(size)
    X = rows[:, : M * size].reshape(k, M, size)
    A = (np.empty(X.size) if work is None else work[: X.size]).reshape(X.shape)
    if cfg.with_intercept:
        np.subtract(X, X.mean(axis=2, keepdims=True), out=A)
    else:
        A[...] = X
    deficient = 0
    if regressed and forces is not None and forces.shape[1] > 0:
        Zw = forces[: M * size].reshape(M, size, forces.shape[1])
        deficient = _remove_forces(A[k - regressed:], Zw, cfg.with_intercept)
    np.cumsum(A, axis=2, out=A)
    flat = A.reshape(k * M, size)
    if cfg.method == POLYNOMIAL:
        Qb, _ = np.linalg.qr(_poly_basis(size, cfg.poly_order))
        flat -= (flat @ Qb) @ Qb.T
    else:
        flat -= _moving_average(flat, size)
    f2 = np.empty((len(pairs), M))
    for n, (i, j) in enumerate(pairs):
        f2[n] = np.einsum("ms,ms->m", A[i], A[j]) / size
    return f2, deficient


def series_pair(x, y) -> tuple[TimeSeries, TimeSeries]:
    """Validate a pair of equal-length series."""
    xs, ys = as_series(x), as_series(y)
    if len(xs) != len(ys):
        raise ShapeError(f"series lengths differ: {len(xs)} != {len(ys)}")
    return xs, ys
