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
k + i its residual on the forces. Only the named rows become profiles,
but they and every force sit once in one window buffer, each centred
from its own series, and the regression reads only buffer rows and their
window means. A call with one force, as the experiments make, may also
ask for the per-window slopes of named series on it, which the regression
gives without building their residual rows. The kernel, every estimator's
one entry, owns the checks: valid rows of one length, sizes with a whole
window, products in float64's normal range, none flushed to zero, and one
warning per call for rank-deficient windows.

The forces go before the cumsum: with an intercept the window residual is
(x - mean x) less its projection on the centred force windows. Modified
Gram-Schmidt orthogonalises those windows one force at a time and removes
the projection on each from the residual in turn, one path for every
number of forces; with one force the residual is x - b z,
b = <z, x> / <z, z>. Removing b z after the cumsum, from Gram products of
detrended profiles of x and z, subtracts nearly equal large numbers: on a
binomial measure r masked by 3 z, x = r + 3 z, it is off by 8% at s = 16.
Products of r and z do not cancel so; the experiments take x|z from them
(see ``experiments``), within 7.4e-15 of long double on that measure from
s = 16. A force the intercept and the forces before it explain in a
window, up to rounding, is left out there with coefficient 0, and the
window counts as rank deficient; Gram-Schmidt on the forces and then the
series is backward stable for least squares, so this one path also serves
nearly collinear forces. A size with some 1,000 windows or more over
the profile rows is cumulated a column at a time, which adds in
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
1.2e-15 <P, P> / F^2 of F^2, so a pair takes it only in the windows where
the trend carries at most 99% of each of its two profiles. In the others
(a profile ruled by a trend of the fit order, as without an intercept on
offset data) it takes the products of explicitly detrended profiles, so
its F^2 does not depend on the other rows of the call. The moving average
is not a projection, so that method subtracts its trend from the profiles
explicitly: the prefix, centre and suffix means of each point, read off
one running sum of the profiles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import as_series, _resident_array, check_fields
from .errors import ConfigError, InvalidScaleError, NumericalError, \
    RankDeficiencyWarning, ShapeError, WindowTooSmallError

POLYNOMIAL = "polynomial"
MOVING_AVERAGE = "moving_average"

# one rule, ``_vanishes``, for force and residual windows: a window whose
# moment after the intercept and the forces before it is at most this
# share of its moment before the forces (centred with an intercept), plus
# the rounding _OFFSET_ROUNDING s mean^2 of its offset, is explained by
# them up to rounding: a force is then left out of the window (it is
# constant there or a combination of the forces before it) and a residual
# window is zero
_VANISHING = 1e-24
# the rounding an offset leaves in a centred window, per s mean^2, the
# mean being the buffer row's window mean (0 without an intercept): each
# point is stored to eps |x| / 2 and the mean's sum errs about as much;
# 16 eps^2 is 6 times the most seen (offsets 1e2 to 3e15, s = 4 to 4096)
# and keeps windows of rms 4 eps |mean| (4 to 8 ulps of the mean) or more
_OFFSET_ROUNDING = 16 * np.finfo(float).eps ** 2
# fewest windows (rows of a (r, M, s) stack, r M) for which running sums
# are taken a column at a time: each of the s - 1 column adds costs a call
# and a strided pass over r M points, np.cumsum about 4 ns a point. On a
# 2-core Xeon with numpy 2.4 the column adds win from about 1,000 windows
# at N = 2^14 and 2^16 alike, for r = 3 and 4 (2^16, r = 3: 463 against
# 697 us at s = 48, 720 against 667 us at s = 226)
_SCAN_WINDOWS = 1000
# largest <P, P> / F^2 of a profile whose products in a window are taken
# from the projection coefficients: above it, every pair with that profile
# takes the explicitly detrended products of the window
_CANCELLATION = 1e2


@dataclass(frozen=True, eq=False)
class ForceMatrix:
    """The p >= 1 external-force series: ``columns`` holds them as
    validated ``TimeSeries`` of one length, which the kernel stacks as
    rows as they are; no forces is ``None``."""

    columns: tuple

    def __post_init__(self):
        columns = tuple(as_series(c) for c in self.columns)
        if not columns:
            raise ShapeError("a force matrix needs at least one column; "
                             "pass None for no forces")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ShapeError(f"force columns differ in length: {sorted(lengths)}")
        object.__setattr__(self, "columns", columns)

    @property
    def p(self) -> int:
        return len(self.columns)


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
        check_fields(self, natural=("poly_order",))

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


def _subtract_moving_average(flat: np.ndarray) -> None:
    """Subtract from each row of ``flat`` (n, s) its centred moving average
    of length s, with shrunken one-sided averages at the box edges, in
    place. The average at k covers [max(k - left, 0), min(k + right + 1,
    s)): a prefix mean for k < left, the whole box at k = left and a suffix
    mean for k > left, all read off the running sums of the rows."""
    s = flat.shape[1]
    left = (s - 1) // 2
    right = s - 1 - left
    csum = np.cumsum(flat, axis=1)
    k = np.arange(s)
    count = np.minimum(k + right + 1, s) - np.maximum(k - left, 0)
    total = csum[:, s - 1:]
    flat[:, :left] -= csum[:, right:s - 1] / count[:left]
    flat[:, left] -= total[:, 0] / s
    flat[:, left + 1:] -= (total - csum[:, :right]) / count[left + 1:]


def _cumulate(A: np.ndarray) -> None:
    """Running sums along the last axis of A, in place. A stack of many
    windows is summed a column at a time, which adds in the order
    np.cumsum does."""
    if A.size // A.shape[-1] < _SCAN_WINDOWS:
        np.cumsum(A, axis=-1, out=A)
        return
    for t in range(1, A.shape[-1]):
        np.add(A[..., t - 1], A[..., t], out=A[..., t])


def _vanishes(moment, centred, means, s: int) -> np.ndarray:
    """Where a window is explained up to rounding (see ``_VANISHING``)."""
    return moment <= _VANISHING * centred + _OFFSET_ROUNDING * s * means ** 2


def _remove_forces(A: np.ndarray, means: np.ndarray, Z, zmeans,
                   S: np.ndarray, slopes: np.ndarray) -> int:
    """Replace the increments A (r, M, s) by their OLS residuals on the
    force windows, in place, by modified Gram-Schmidt: each force window
    Z[f], an (M, s) array, is orthogonalised against those before it and
    its projection removed from A. A, Z and S are rows of one buffer,
    each centred by its (M,) window means (zero without an intercept):
    ``means`` (r, M) of A and ``zmeans`` of Z. A force window, or a
    residual one, that the intercept and the forces before it explain up
    to rounding (``_vanishes``) is left out, or set to zero. The windows
    S (n, M, s) are left as they are: given them, Z holds one force, and
    their OLS slopes on it go to ``slopes`` (n, M), 0 where it is left
    out. A window where a moment overflows float64, which would pass for
    an explained one, gets nan residuals. Returns the number of windows
    that leave out a force: rank-deficient ones."""
    M, s = A.shape[1:]
    left_out = np.zeros(M, dtype=bool)
    # (q, |q|^2) of each force, inf where it is left out
    basis = []
    for q, mean in zip(Z, zmeans):
        moment = np.einsum("ms,ms->m", q, q)
        A[:, ~np.isfinite(moment)] = np.nan
        for u, norm in basis:
            # a force left out of a window divides by inf there
            q = q - (np.einsum("ms,ms->m", u, q) / norm)[:, None] * u
        norm = np.einsum("ms,ms->m", q, q) if basis else moment
        vanished = _vanishes(norm, moment, mean, s)
        left_out |= vanished
        basis.append((q, np.where(vanished, np.inf, norm)))
    if len(S):
        [(q, norm)] = basis
        np.divide(np.einsum("ms,nms->nm", q, S), norm, out=slopes)
    if not len(A):
        return int(np.count_nonzero(left_out))
    # b = <q, A> / |q| / |q| divides by the triangular factor's diagonal
    # |q| twice, as its two solves do; a left-out force gets b = 0
    explained = np.zeros(A.shape[:2])
    for q, norm in basis:
        root = np.sqrt(norm)
        dot = np.einsum("ms,rms->rm", q, A)
        b = dot / root / root
        A -= b[:, :, None] * q
        explained += b * dot
    # by Pythagoras the centred moment is the residual's plus the
    # <q, A>^2 / |q|^2 each force explains. A residual the forces explain
    # up to rounding is zero: its profile is rounding noise, whose
    # fluctuations would pass for a signal
    after = np.einsum("rms,rms->rm", A, A)
    A[_vanishes(after, after + explained, means, s)] = 0.0
    A[~np.isfinite(after + explained)] = np.nan
    return int(np.count_nonzero(left_out))


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


@dataclass(frozen=True, eq=False)
class WindowCovariances:
    """Window covariances of pairs of stack rows: ``f2`` is (pairs, W),
    scale j taking ``windows[j]`` consecutive columns, of which
    ``deficient[j]`` have a rank-deficient force design. ``slopes`` is
    (series, W): the OLS slopes on the one force of the series a
    ``window_products`` call names, in each window."""

    f2: np.ndarray
    windows: np.ndarray
    deficient: np.ndarray
    slopes: np.ndarray

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-scale sums of ``values`` (..., W) over the windows."""
        return np.add.reduceat(values, np.cumsum(self.windows)
                               - self.windows, axis=-1)

    def means(self) -> np.ndarray:
        """The (pairs, scales) signed mean covariances."""
        return self.sums(self.f2) / self.windows


def window_products(rows, sizes, cfg: DetrendConfig, pairs, forces=(),
                    slopes=()) -> WindowCovariances:
    """Window covariances of pairs of stack rows at every window size.

    ``rows`` holds k distinct equal-length series (a (k, T) array or a
    sequence of series, each through ``as_series``) and ``forces`` the
    indices of those that are force columns. In a pair, index i < k names
    series i and index k + i the residual of series i on the forces. In
    every size-s window a row is the increments of its series, centred with
    an intercept; a residual row then has its OLS fit on the force windows
    removed. One buffer, which serves every size, holds the r rows some
    pair names and after them the forces no pair names plain, each row
    centred from its own series: a force has one copy per window, and the
    regression reads the forces' offsets from the same window means as the
    residuals'. Only the r named rows are cumulated and detrended; the
    moving average's running sums are a fresh array at each size. Returns
    the signed mean products of the detrended profiles of each pair in the
    T // s windows of each size s (points beyond the last whole window are
    excluded), with the per-size counts of windows and of rank-deficient
    force designs.

    ``slopes`` names distinct series i < k whose per-window OLS slopes
    on the force (not the intercept) the record returns, in the order
    named; it needs exactly one force, the z the experiments regress on,
    and raises ``ConfigError`` otherwise. The slopes come from the force
    regression's own pass, which builds no residual row for them, and are
    0 in a window that leaves the force out. With them a residual need not
    be built: that of x = b0 + b1 z + r on z is r - a z in each window, a
    the slope of r, so its products are bilinear forms in the plain
    products of r and z, as the experiments take them.

    Unequal lengths raise ``ShapeError``, a size outside 2 <= s <= T
    ``InvalidScaleError``, and products beyond float64's range or
    below its normal range, or flushed to zero from a nonzero profile,
    ``NumericalError`` naming the first such size. Rank-deficient windows
    raise one ``RankDeficiencyWarning`` per call, at the estimator's caller.
    """
    rows = [as_series(row).values for row in rows]
    lengths = {row.size for row in rows}
    if len(lengths) > 1:
        raise ShapeError(f"series lengths differ: {sorted(lengths)}")
    k, T = len(rows), rows[0].size
    sizes = [int(s) for s in sizes]
    slopes = list(slopes)
    if slopes and len(forces) != 1:
        raise ConfigError(f"slopes need exactly one force, got {len(forces)}")
    d = len(forces) + int(cfg.with_intercept)
    for s in sizes:
        if s > T:
            raise InvalidScaleError(f"scale {s} exceeds the series length {T}")
        if s < 2:
            raise InvalidScaleError(f"scale {s} < 2")
        cfg.check_scale(s)
        if forces and s <= d:
            raise WindowTooSmallError(
                f"window of size {s} cannot fit {d} regression columns")
    # the slope series lead, so their windows are one slice of the buffer;
    # the forces no pair names plain follow the r profile rows
    named = slopes + sorted({i for pair in pairs for i in pair}
                            - set(slopes))
    r, plain = len(named), sum(i < k for i in named)
    named += [f for f in forces if f not in named]
    slot = {i: n for n, i in enumerate(named)}
    pairs = [(slot[i], slot[j]) for i, j in pairs]
    zrows = [slot[f] for f in forces]
    # one buffer for every size: fresh multi-MB arrays go back to the
    # system whenever glibc trims its heap and are faulted in again, up to
    # 32,000 minor faults per 7-row stack at N = 2^16
    work = np.empty(len(named) * T)
    windows = np.array([T // size for size in sizes])
    out = np.empty((len(pairs), windows.sum()))
    coefs = np.zeros((len(slopes), windows.sum()))
    deficient = np.zeros(len(sizes), dtype=int)
    flushed = np.zeros(len(sizes), dtype=bool)
    # an overflowed product (inf, or nan from inf) is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (size, start) in enumerate(zip(sizes,
                                              np.cumsum(windows) - windows)):
            M = T // size
            dest = out[:, start:start + M]
            B = work[:len(named) * M * size].reshape(len(named), M, size)
            # without an intercept the means stay zero and the rows raw
            means = np.zeros((len(named), M, 1))
            for a, i in enumerate(named):
                X = rows[i % k][: M * size].reshape(M, size)
                if cfg.with_intercept:
                    # ndarray.mean's sum and division, without its dispatch
                    np.add.reduce(X, axis=-1, keepdims=True, out=means[a])
                    means[a] /= size
                np.subtract(X, means[a], out=B[a])
            A = B[:r]
            if forces:
                deficient[j] = _remove_forces(
                    A[plain:], means[plain:r, :, 0], [B[f] for f in zrows],
                    means[zrows, :, 0], A[:len(slopes)],
                    coefs[:, start:start + M])
            _cumulate(A)
            flat = A.reshape(r * M, size)
            if cfg.method == MOVING_AVERAGE:
                _subtract_moving_average(flat)
                f2 = _products(A, pairs, dest)
            else:
                # <P_i - QQ'P_i, P_j - QQ'P_j> = <P_i, P_j> - <c_i, c_j>
                Q = _projection_basis(size, cfg.poly_order)
                c = (flat @ Q).reshape(r, M, Q.shape[1])
                norms = np.einsum("kms,kms->km", A, A)
                trends = np.einsum("kmd,kmd->km", c, c)
                f2 = _products(A, pairs, dest, norms)
                f2 -= _products(c, pairs, np.empty((len(pairs), M)), trends)
                # the difference loses up to 1.2e-15 <P, P> / F^2 of F^2:
                # a pair takes the explicitly detrended products in the
                # windows where a trend carries most of one of its profiles
                ruled = norms > _CANCELLATION * (norms - trends)
                bad = np.logical_or.reduce(ruled, axis=0).nonzero()[0]
                if bad.size:
                    R = A[:, bad]
                    R -= (R @ Q) @ Q.T
                    own = (ruled[[i for i, _ in pairs]]
                           | ruled[[j for _, j in pairs]])[:, bad]
                    f2[:, bad] = np.where(own, _products(
                        R, pairs, np.empty(own.shape)), f2[:, bad])
            if not f2.all():
                # a nonzero profile whose squares flush to zero underflowed
                flushed[j] = A[np.einsum("kms,kms->km", A, A) == 0].any()
            f2 /= size
    covs = WindowCovariances(out, windows, deficient, coefs)
    absf2 = np.abs(out)
    tiny = covs.sums((absf2 > 0.0) & (absf2 < np.finfo(float).tiny))
    for what, hit in (("overflow", covs.sums(~np.isfinite(out)).any(axis=0)),
                      ("underflow", flushed | tiny.any(axis=0))):
        if hit.any():
            raise NumericalError(f"window products {what} float64 at scale "
                                 f"{sizes[hit.argmax()]}")
    if deficient.any():
        warnings.warn(f"rank-deficient design in {deficient.sum()} of "
                      f"{windows.sum()} windows; the forces those windows "
                      "cannot use were left out (coefficient 0)",
                      RankDeficiencyWarning, stacklevel=3)
    return covs
