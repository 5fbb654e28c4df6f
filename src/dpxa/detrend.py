"""Per-window removal of external forces and local trends: the window
kernel behind every estimator.

DFA, DCCA, DPXA and rho(s) all take the same steps in each size-s box:
remove the force regression from the increments, cumulate the residuals
into a disturbance profile, remove its local trend (polynomial fit or
centred moving average of length s) and average products of two detrended
profiles. So each estimator is a pair of rows of one stack, and
``window_products`` takes these steps for every pair and size in one call,
which returns one ``WindowCovariances`` record. The stack holds k distinct
series, some of them force columns; a pair index i < k names series i, and
k + i its residual on the forces. Only the named rows are built, and each
series is centred once per window: a residual row copies its series'
centred windows, and forces the pairs name plain (the sweep's z) lend
theirs to the regression.

The forces go before the cumsum: with an intercept the window residual is
(x - mean x) less its projection on the centred force windows. Modified
Gram-Schmidt orthogonalises those windows one force at a time and removes
the projection on each from the residual in turn, one path for every
number of forces; with one force the residual is x - b z, b = <z, x> /
<z, z>. Removing b z after the cumsum, from Gram products of detrended
profiles, subtracts nearly equal large numbers: on a binomial measure
masked by 3 z it is off by 8% at s = 16. Windows where a force fails a
guard get coefficient 0 and fall back to a least-squares solve, whose
residual is unique even where the coefficients are not. Windows of at
most 32 points are cumulated a column at a time, which adds in
np.cumsum's order and is faster there.

At the sweep's N = 2^14 much of a call is numpy dispatch rather than
arithmetic, so the kernel calls the ufunc reductions that ndarray.mean,
np.any and np.all wrap, and np.einsum writes each pair's products straight
into its row of the returned record. Each floating-point operation and its
order are those of the plain calls, so the covariances are bitwise the
same.

The polynomial trend is never formed. With Q an orthonormal basis of the
polynomials of the fit order on the box and c = Q'P the projection
coefficients of a profile P, the products of detrended profiles are
<P_i, P_j> - <c_i, c_j>. That difference loses up to about
1.2e-15 <P, P> / F^2 of F^2, so it is used only where the trend carries at
most 99% of every profile of the window. The other windows (profiles ruled
by a trend of the fit order, as without an intercept on offset data) are
detrended explicitly. The moving average is not a projection, so that
method subtracts its trend from the profiles explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import as_series, _frozen_array, _resident_array
from .errors import ConfigError, DataError, ShapeError, WindowTooSmallError

POLYNOMIAL = "polynomial"
MOVING_AVERAGE = "moving_average"

# a force whose Gram-Schmidt norm^2 is below this share of its centred
# moment is collinear with the forces before it: sin^2 of the angle between
# the force and their span, below which the regression loses too many
# digits
_COLLINEAR = 1e-6
# a centred force column whose sum of squares is below this share of the
# raw one is constant within the window up to rounding; a residual window
# below this share of its moment before the regression is explained by the
# forces up to rounding
_VANISHING = 1e-24
# longest window summed by column adds; they lose to np.cumsum from s ~ 48
_SHORT_SCAN = 32
# largest <P, P> / F^2 of a window whose F^2 is taken from the projection
# coefficients: above it the window is detrended explicitly
_CANCELLATION = 1e2


@dataclass(frozen=True, eq=False)
class ForceMatrix:
    """The p >= 1 external-force series as a (T, p) column matrix; no
    forces is ``None``."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ShapeError(f"force matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ShapeError("force matrix has no rows")
        if arr.shape[1] == 0:
            raise ShapeError("force matrix has no columns; pass None for "
                             "no forces")
        if not np.all(np.isfinite(arr)):
            raise DataError("force matrix contains non-finite values")
        object.__setattr__(self, "data", _frozen_array(arr))

    @classmethod
    def from_series(cls, columns) -> "ForceMatrix":
        series = [as_series(c) for c in columns]
        if not series:
            raise ShapeError("from_series needs at least one column; pass "
                             "None for no forces")
        lengths = {len(s) for s in series}
        if len(lengths) > 1:
            raise ShapeError(f"force columns differ in length: {sorted(lengths)}")
        return cls(np.column_stack([s.values for s in series]))

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

# bases kept per process: a few scale grids of 20 scales; at N = 2^16 the
# largest default scale's basis takes 0.25 MB
@lru_cache(maxsize=64)
def _projection_basis(s: int, order: int) -> np.ndarray:
    """Orthonormal basis Q (s, order + 1) of the polynomials of the given
    order on a box of s points, read-only: every call at scale s reuses
    it."""
    # abscissa scaled to [-1, 1] so high orders stay well conditioned
    half = max((s - 1) / 2.0, 1.0)
    t = (np.arange(s, dtype=float) - (s - 1) / 2.0) / half
    Q, _ = np.linalg.qr(np.vander(t, order + 1, increasing=True))
    return _resident_array(Q)


def _subtract_moving_average(flat: np.ndarray, csum: np.ndarray) -> None:
    """Subtract from each row of ``flat`` (n, s) its centred moving average
    of length s, with shrunken one-sided averages at the box edges, in
    place; ``csum`` is an (n, s) scratch buffer.

    The average at k covers [lo, hi) = [max(k - left, 0), min(k + right +
    1, s)], so it is a prefix mean for k <= left and a suffix mean for
    k >= left. Both come from the running sum C of the row, C[j] = sum of
    row[:j + 1]: the prefix sums sit in C[right:s-1] and the suffix
    differences C[s-1] - C[k-left-1] are formed in C[:right], slots no
    prefix mean reads, so no array of the box's size is allocated."""
    s = flat.shape[1]
    left = (s - 1) // 2
    right = s - 1 - left
    np.cumsum(flat, axis=1, out=csum)
    k = np.arange(s)
    count = np.minimum(k + right + 1, s) - np.maximum(k - left, 0)
    total = csum[:, s - 1:]
    suffix = csum[:, :right]
    np.subtract(total, suffix, out=suffix)
    suffix /= count[left + 1:]
    prefix = csum[:, right:s - 1]
    prefix /= count[:left]
    flat[:, :left] -= prefix
    flat[:, left] -= total[:, 0] / s
    flat[:, left + 1:] -= suffix


def _cumulate(A: np.ndarray) -> None:
    """Running sums along the last axis of A, in place. Short windows are
    summed a column at a time, which adds in the order np.cumsum does."""
    size = A.shape[-1]
    if size > _SHORT_SCAN:
        np.cumsum(A, axis=-1, out=A)
        return
    for t in range(1, size):
        np.add(A[..., t - 1], A[..., t], out=A[..., t])


def _remove_forces(A: np.ndarray, Z, Zc, with_intercept: bool) -> int:
    """Replace the increments A (r, M, s) by their OLS residuals on the
    force windows, in place, by modified Gram-Schmidt: each centred force
    window Zc[f], an (M, s) array, is orthogonalised against those before
    it and its projection removed from A. Z holds the raw windows; A and Zc
    are already centred when ``with_intercept``. A residual window whose
    moment the regression cuts to at most ``_VANISHING`` of what it was is
    set to zero. Returns the number of rank-deficient windows."""
    M, s = A.shape[1:]
    d = len(Z) + int(with_intercept)
    if s <= d:
        raise WindowTooSmallError(
            f"window of size {s} cannot fit {d} regression columns"
        )
    ok = np.ones(M, dtype=bool)
    basis = []
    for z, q in zip(Z, Zc):
        moment = np.einsum("ms,ms->m", q, q)
        for u, norm in basis:
            # windows that failed a guard divide by inf: u may vanish there
            q = q - (np.einsum("ms,ms->m", u, q)
                     / np.where(ok, norm, np.inf))[:, None] * u
        norm = np.einsum("ms,ms->m", q, q) if basis else moment
        ok &= norm > _COLLINEAR * moment
        # a force that is constant within a window (up to rounding)
        # vanishes once centred: that column duplicates the intercept
        ok &= moment > _VANISHING * (np.einsum("ms,ms->m", z, z)
                                     if with_intercept else moment)
        basis.append((q, norm))
    # b = <q, A> / |q| / |q| divides by the triangular factor's diagonal
    # |q| twice, as its two solves do. Windows that failed a guard get b = 0
    # and a least-squares solve, whose residual is unique where b is not
    explained = np.zeros(A.shape[:2])
    for q, norm in basis:
        root = np.sqrt(np.where(ok, norm, np.inf))
        dot = np.einsum("ms,rms->rm", q, A)
        b = dot / root / root
        A -= b[:, :, None] * q
        explained += b * dot
    # by Pythagoras the moment before the regression is the residual's plus
    # the explained <q, A>^2 / |q|^2 of each force
    after = np.einsum("rms,rms->rm", A, A)
    before = after + explained
    deficient = 0
    for m in (~ok).nonzero()[0]:
        columns = [z[m] for z in Z]
        design = np.column_stack([np.ones(s)] + columns if with_intercept
                                 else columns)
        beta, _, rank, _ = np.linalg.lstsq(design, A[:, m].T, rcond=None)
        A[:, m] -= (design @ beta).T
        after[:, m] = np.einsum("rs,rs->r", A[:, m], A[:, m])
        deficient += int(rank < d)
    # a residual the forces explain up to rounding is zero: its profile is
    # rounding noise, whose fluctuations would pass for a signal
    A[after <= _VANISHING * before] = 0.0
    return deficient


def _products(P: np.ndarray, pairs, out: np.ndarray,
              norms: np.ndarray | None = None) -> np.ndarray:
    """Write sum_s P[i, m, s] P[j, m, s] of pair n = (i, j) and window m to
    out[n, m] of the (pairs, M) ``out``, which may be rows of the record's
    ``f2``, and return ``out``; the diagonal pairs are copied from the
    (k, M) ``norms`` when given."""
    for n, (i, j) in enumerate(pairs):
        if norms is not None and i == j:
            out[n] = norms[i]
        else:
            np.einsum("ms,ms->m", P[i], P[j], out=out[n])
    return out


def _centre(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """X minus its mean along the last axis, into ``out`` when given: the
    sum and division of ``ndarray.mean``, without its dispatch."""
    mean = np.add.reduce(X, axis=-1, keepdims=True)
    mean /= X.shape[-1]
    return np.subtract(X, mean, out=out)


@dataclass(frozen=True, eq=False)
class WindowCovariances:
    """Window covariances of pairs of stack rows: ``f2`` is (pairs, W),
    scale j taking ``windows[j]`` consecutive columns, of which
    ``deficient[j]`` have a rank-deficient force design."""

    f2: np.ndarray
    windows: np.ndarray
    deficient: np.ndarray

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-scale sums of ``values`` (..., W) over the windows."""
        return np.add.reduceat(values, np.cumsum(self.windows)
                               - self.windows, axis=-1)

    def means(self) -> np.ndarray:
        """The (pairs, scales) signed mean covariances."""
        return self.sums(self.f2) / self.windows


def window_products(rows, sizes, cfg: DetrendConfig, pairs, forces=()
                    ) -> WindowCovariances:
    """Window covariances of pairs of stack rows at every window size.

    ``rows`` holds k distinct equal-length series (a (k, T) array or a
    sequence of 1-d arrays) and ``forces`` the indices of those that are
    force columns. In a pair, index i < k names series i and index k + i
    the residual of series i on the forces. In every size-s window a row
    is the increments of its series, centred with an intercept; a residual
    row then has its OLS fit on the force windows removed. Only the rows
    some pair names are built, and each series is centred once: a residual
    row copies its series' centred windows, and each force the pairs name
    plain lends those rows' centred windows to the regression. The
    rows are cumulated and detrended together, in one buffer that serves
    every size. Returns the signed mean products of the detrended profiles
    of each pair in the T // s windows of each size s (points beyond the
    last whole window are excluded), with the per-size counts of windows
    and of rank-deficient force designs.
    """
    rows = list(rows)
    k, T = len(rows), len(rows[0])
    sizes = [int(s) for s in sizes]
    for s in sizes:
        cfg.check_scale(s)
    named = sorted({i for pair in pairs for i in pair})
    slot = {i: n for n, i in enumerate(named)}
    pairs = [(slot[i], slot[j]) for i, j in pairs]
    r, plain = len(named), sum(i < k for i in named)
    moving = cfg.method == MOVING_AVERAGE
    # one buffer for every size: fresh multi-MB arrays go back to the
    # system whenever glibc trims its heap and are faulted in again, up to
    # 32,000 minor faults per 7-row stack at N = 2^16
    work = np.empty((2 if moving else 1) * r * T)
    windows = np.array([T // size for size in sizes])
    out = np.empty((len(pairs), windows.sum()))
    deficient = np.zeros(len(sizes), dtype=int)
    for j, (size, dest) in enumerate(zip(sizes, np.split(
            out, np.cumsum(windows)[:-1], axis=1))):
        M = T // size
        n = r * M * size
        A = work[:n].reshape(r, M, size)
        for a, i in enumerate(named):
            if i >= k and i - k in slot:
                A[a] = A[slot[i - k]]
                continue
            X = rows[i - k if i >= k else i][: M * size].reshape(M, size)
            if cfg.with_intercept:
                _centre(X, A[a])
            else:
                A[a] = X
        if forces and plain < r:
            Z = [rows[f][: M * size].reshape(M, size) for f in forces]
            # a force the pairs name plain lends its centred windows
            Zc = Z if not cfg.with_intercept else [
                A[slot[f]] if f in slot else _centre(z)
                for f, z in zip(forces, Z)]
            deficient[j] = _remove_forces(A[plain:], Z, Zc, cfg.with_intercept)
        _cumulate(A)
        flat = A.reshape(r * M, size)
        if moving:
            _subtract_moving_average(flat, work[n: 2 * n].reshape(r * M, size))
            f2 = _products(A, pairs, dest)
        else:
            # sum (P - QQ'P)_i (P - QQ'P)_j = <P_i, P_j> - <c_i, c_j>, c = Q'P
            Q = _projection_basis(size, cfg.poly_order)
            c = (flat @ Q).reshape(r, M, Q.shape[1])
            norms = np.einsum("kms,kms->km", A, A)
            trends = np.einsum("kmd,kmd->km", c, c)
            f2 = _products(A, pairs, dest, norms)
            f2 -= _products(c, pairs, np.empty((len(pairs), M)), trends)
            # the difference loses up to 1.2e-15 * <P, P> / F^2 of F^2:
            # windows where a trend carries most of a profile are detrended
            # explicitly
            bad = np.logical_or.reduce(
                norms > _CANCELLATION * (norms - trends), axis=0).nonzero()[0]
            if bad.size:
                R = A[:, bad]
                R -= (R @ Q) @ Q.T
                f2[:, bad] = _products(R, pairs,
                                       np.empty((len(pairs), bad.size)))
        f2 /= size
    return WindowCovariances(out, windows, deficient)
