"""Single-window reference forms of the window kernel's steps: force
regression, profile, local trend and mean product, one window at a time.
They share no code with ``dpxa.detrend.window_products`` and serve as its
test oracle."""

import warnings

import numpy as np

from dpxa.detrend import MOVING_AVERAGE, DetrendConfig
from dpxa.errors import RankDeficiencyWarning, ShapeError, WindowTooSmallError


def window_ols(xv, Zv, with_intercept: bool = True):
    """Least-squares fit of one window against its force block.

    Returns ``(beta, residuals)`` where ``beta`` lists the intercept first
    when enabled. Rank-deficient designs are resolved to the minimum-norm
    solution with a RankDeficiencyWarning rather than an error.
    """
    x = np.asarray(xv, dtype=float)
    Z = np.asarray(Zv, dtype=float)
    if Z.ndim == 1:
        Z = Z.reshape(-1, 1) if Z.size else Z.reshape(x.size, 0)
    s, p = Z.shape
    if x.size != s:
        raise ShapeError(f"window length {x.size} != force block length {s}")
    ncols = p + int(with_intercept)
    if s <= ncols:
        raise WindowTooSmallError(
            f"window of size {s} cannot fit {ncols} regression columns"
        )
    if ncols == 0:
        return np.empty(0), x.copy()
    design = np.column_stack([np.ones(s), Z]) if with_intercept else Z
    beta, _, rank, _ = np.linalg.lstsq(design, x, rcond=None)
    if rank < ncols:
        warnings.warn(
            f"rank-deficient design (rank {rank} < {ncols}); "
            "minimum-norm solution used",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return beta, x - design @ beta


def profile(residuals) -> np.ndarray:
    """Disturbance profile: cumulative sum restarting at the window start."""
    return np.cumsum(np.asarray(residuals, dtype=float))


def local_trend(window_profile, cfg: DetrendConfig) -> np.ndarray:
    """Local trend of one window profile: least-squares polynomial, or the
    centred moving average of length s with shrunken one-sided means at
    the edges."""
    P = np.asarray(window_profile, dtype=float)
    s = P.size
    cfg.check_scale(s)
    if cfg.method == MOVING_AVERAGE:
        left = (s - 1) // 2
        right = s - 1 - left
        return np.array([P[max(0, k - left): k + right + 1].mean()
                         for k in range(s)])
    basis = np.vander(np.linspace(-1.0, 1.0, s), cfg.poly_order + 1,
                      increasing=True)
    coef, _, _, _ = np.linalg.lstsq(basis, P, rcond=None)
    return basis @ coef


def window_cov(rx, ry) -> float:
    """Signed mean product of two already-detrended window profiles."""
    a = np.asarray(rx, dtype=float)
    b = np.asarray(ry, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"window shapes differ: {a.shape} != {b.shape}")
    return float(np.mean(a * b))


def oracle_products(rows, Z, s, cfg, pairs, regressed=0):
    """``window_products`` rebuilt window by window: window_ols -> profile
    -> local_trend -> window_cov."""
    k, T = rows.shape
    M = T // s
    out = np.empty((len(pairs), M))
    for v in range(M):
        sl = slice(v * s, (v + 1) * s)
        det = []
        for i in range(k):
            forced = i >= k - regressed and Z is not None
            Zv = Z[sl] if forced else np.empty((s, 0))
            _, res = window_ols(rows[i, sl], Zv, cfg.with_intercept)
            prof = profile(res)
            det.append(prof - local_trend(prof, cfg))
        for n, (i, j) in enumerate(pairs):
            out[n, v] = window_cov(det[i], det[j])
    return out
