"""Per-window removal of external forces and local trends: the window
kernel behind every estimator.

DFA, DCCA, DPXA and rho(s) all take the same steps in each size-s box:
remove the force regression from the increments, cumulate the residuals
into a disturbance profile, remove its local trend (polynomial fit or
centred moving average of length s) and average products of two detrended
profiles. So each estimator is a pair of rows of one stack, and
``window_products`` takes these steps for every pair and size in one
call. The stack holds k distinct series, some of them force columns; a
pair index i < k names series i, and k + i its residual on the forces.
Only the named rows are built, and each series is centred once per
window: a residual row copies its series' centred windows, and forces the
pairs name plain (the sweep's z) lend theirs to the regression.

The forces go before the cumsum: with an intercept the window residual is
(x - mean x) - b (z - mean z), with b from the p x p centred force
moments (Cholesky; a division for one force). Removing b z after the
cumsum, from Gram products of detrended profiles, subtracts nearly equal
large numbers: on a binomial measure masked by 3 z it is off by 8% at
s = 16. Rank-deficient windows fall back to a least-squares solve, whose
residual is unique even where b is not. Windows of at most 32 points are
cumulated a column at a time, which adds in np.cumsum's order and is
faster there.

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

# Cholesky pivots below this share of their column's centred moment mark
# force columns as collinear: sin^2 of the angle between a column and the
# span of the others, below which the moment solve loses too many digits
_COLLINEAR = 1e-6
# a centred force column whose sum of squares is below this share of the
# raw one is constant within the window up to rounding
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


def _solve_moments(C: np.ndarray, B: np.ndarray) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """Cholesky solve of C b = B in every window, for C (M, p, p) and B
    (M, p, r); with p = 1 it is a division. Also returns which windows
    pass the pivot guard; the others' coefficients are meaningless."""
    p = C.shape[1]
    L = np.zeros_like(C)
    ok = np.ones(C.shape[0], dtype=bool)
    # sums over k < j are empty at j = 0 and those over k > j at j = p - 1;
    # they are skipped, as x - 0.0 == x
    for j in range(p):
        pivot, below = C[:, j, j], C[:, j + 1:, j]
        if j:
            pivot = pivot - np.einsum("mk,mk->m", L[:, j, :j], L[:, j, :j])
        if 0 < j < p - 1:
            below = below - np.einsum("mik,mk->mi", L[:, j + 1:, :j],
                                      L[:, j, :j])
        ok &= pivot > _COLLINEAR * C[:, j, j]
        L[:, j, j] = np.sqrt(np.where(ok, pivot, 1.0))
        L[:, j + 1:, j] = below / L[:, j, j, None]
    b = B.copy()
    for j in range(p):  # L y = B
        if j:
            b[:, j] -= np.einsum("mk,mkr->mr", L[:, j, :j], b[:, :j])
        b[:, j] /= L[:, j, j, None]
    for j in reversed(range(p)):  # L^T b = y
        if j < p - 1:
            b[:, j] -= np.einsum("mk,mkr->mr", L[:, j + 1:, j], b[:, j + 1:])
        b[:, j] /= L[:, j, j, None]
    return b, ok


def _remove_forces(A: np.ndarray, Z: np.ndarray, Zc: np.ndarray,
                   with_intercept: bool) -> int:
    """Replace the increments A (r, M, s) by their OLS residuals on the
    force block Z (p, M, s) of each window, in place; A and Zc, Z's
    windows, are already centred when ``with_intercept``. Returns the
    number of rank-deficient windows."""
    r, M, s = A.shape
    p = Z.shape[0]
    d = p + int(with_intercept)
    if s <= d:
        raise WindowTooSmallError(
            f"window of size {s} cannot fit {d} regression columns"
        )
    C = np.einsum("ims,jms->mij", Zc, Zc)
    b, ok = _solve_moments(C, np.einsum("ims,rms->mir", Zc, A))
    # a force that is constant within a window (up to rounding) vanishes
    # once centred: that column duplicates the intercept
    diag = np.diagonal(C, axis1=1, axis2=2)
    raw = np.einsum("ims,ims->mi", Z, Z) if with_intercept else diag
    ok &= np.all(diag > _VANISHING * raw, axis=1)
    A -= np.einsum("ims,mir->rms", Zc, np.where(ok[:, None, None], b, 0.0))
    deficient = 0
    for m in np.flatnonzero(~ok):
        # the residual is unique even where b is not
        design = np.column_stack([np.ones(s), Z[:, m].T]) if with_intercept \
            else Z[:, m].T
        beta, _, rank, _ = np.linalg.lstsq(design, A[:, m].T, rcond=None)
        A[:, m] -= (design @ beta).T
        deficient += int(rank < d)
    return deficient


def _products(P: np.ndarray, pairs, norms: np.ndarray | None = None
              ) -> np.ndarray:
    """sum_s P[i, m, s] P[j, m, s] for each pair (i, j) and window m; the
    diagonal pairs are taken from the (k, M) ``norms`` when given."""
    return np.stack([norms[i] if norms is not None and i == j
                     else np.einsum("ms,ms->m", P[i], P[j])
                     for i, j in pairs])


def _block(rows) -> np.ndarray:
    """The given equal-shape arrays as one array along a new first axis:
    a view of a single array, a copy of several."""
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def window_products(rows, sizes, cfg: DetrendConfig, pairs, forces=()
                    ) -> tuple[list[np.ndarray], int]:
    """Window covariances of pairs of stack rows at every window size.

    ``rows`` holds k distinct equal-length series (a (k, T) array or a
    sequence of 1-d arrays) and ``forces`` the indices of those that are
    force columns. In a pair, index i < k names series i and index k + i
    the residual of series i on the forces. In every size-s window a row
    is the increments of its series, centred with an intercept; a residual
    row then has its OLS fit on the force windows removed. Only the rows
    some pair names are built, and each series is centred once: a residual
    row copies its series' centred windows, and when the pairs name every
    force plain, the regression takes those rows' centred windows. The
    rows are cumulated and detrended together, in one buffer that serves
    every size. Returns, per size, the (len(pairs), T // s) signed mean
    products of the detrended profiles of each pair (points beyond the
    last whole window are excluded), and the number of windows whose
    force design is rank deficient, over all sizes.
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
    F = _block([rows[f] for f in forces]) if forces and plain < r else None
    lent = all(f in slot for f in forces)
    out, deficient = [], 0
    for size in sizes:
        M = T // size
        n = r * M * size
        A = work[:n].reshape(r, M, size)
        for a, i in enumerate(named):
            if i >= k and i - k in slot:
                A[a] = A[slot[i - k]]
                continue
            X = rows[i - k if i >= k else i][: M * size].reshape(M, size)
            if cfg.with_intercept:
                np.subtract(X, X.mean(axis=1, keepdims=True), out=A[a])
            else:
                A[a] = X
        if F is not None:
            Z = F[:, : M * size].reshape(len(forces), M, size)
            if not cfg.with_intercept:
                Zc = Z
            elif lent:
                Zc = _block([A[slot[f]] for f in forces])
            else:
                Zc = Z - Z.mean(axis=2, keepdims=True)
            deficient += _remove_forces(A[plain:], Z, Zc, cfg.with_intercept)
        _cumulate(A)
        flat = A.reshape(r * M, size)
        if moving:
            _subtract_moving_average(flat, work[n: 2 * n].reshape(r * M, size))
            out.append(_products(A, pairs) / size)
            continue
        # sum (P - QQ'P)_i (P - QQ'P)_j = <P_i, P_j> - <c_i, c_j>, c = Q'P
        Q = _projection_basis(size, cfg.poly_order)
        c = (flat @ Q).reshape(r, M, Q.shape[1])
        norms = np.einsum("kms,kms->km", A, A)
        trends = np.einsum("kmd,kmd->km", c, c)
        f2 = _products(A, pairs, norms) - _products(c, pairs, trends)
        # the difference loses up to 1.2e-15 * <P, P> / F^2 of F^2: windows
        # where a trend carries most of a profile are detrended explicitly
        bad = np.flatnonzero(np.any(norms > _CANCELLATION * (norms - trends),
                                    axis=0))
        if bad.size:
            R = A[:, bad]
            R -= (R @ Q) @ Q.T
            f2[:, bad] = _products(R, pairs)
        out.append(f2 / size)
    return out, deficient
