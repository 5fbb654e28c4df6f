"""Reference forms the package is tested against.

Single-window forms of the window kernel's steps: force regression,
profile, local trend and mean product, one window at a time. They share no
code with ``dpxa.detrend.window_products`` and serve as its test oracle.
``longdouble_products`` detrends every window explicitly in extended
precision, the reference for the kernel's rounding error.

The unfolded circulant-embedding synthesis: complex noise over all 2N
frequencies and one complex FFT of length 2N, keeping the real part of the
first N outputs. It shares no code with ``dpxa.generators``, draws the same
noise in the same order, and serves as the generators' test oracle."""

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
    -> local_trend -> window_cov. The last ``regressed`` of the k rows are
    regressed on the (T, p) force columns Z; pair indices name the rows
    as given."""
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


def longdouble_products(rows, s, order, pairs):
    """Mean products of the explicitly detrended profiles of each row pair
    in every size-s window, in np.longdouble: the increments are centred
    per window, cumulated, and projected off a polynomial basis of the
    given order orthonormalised by twice-repeated Gram-Schmidt. Returns
    the (len(pairs), M) products and each row's (k, M) own products."""
    L = np.longdouble
    k, T = rows.shape
    M = T // s
    X = rows[:, : M * s].reshape(k, M, s).astype(L)
    P = np.cumsum(X - X.mean(axis=2, keepdims=True), axis=2)
    t = np.arange(s, dtype=L) - L(s - 1) / 2
    Q = np.zeros((s, order + 1), dtype=L)
    for j in range(order + 1):
        v = t ** j
        for _ in range(2):
            v = v - Q[:, :j] @ (Q[:, :j].T @ v)
        Q[:, j] = v / np.sqrt(v @ v)
    R = P - (P @ Q) @ Q.T
    products = np.stack([(R[i] * R[j]).mean(axis=1) for i, j in pairs])
    return products, (R * R).mean(axis=2)


def three_power_autocovariance(hurst: float, max_lag: int) -> np.ndarray:
    """gamma(0..max_lag) of unit-variance FGN, three powers per lag."""
    k = np.arange(max_lag + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2
                  + np.abs(k - 1) ** h2)


def _mirror(half):
    return np.concatenate([half, half[-2:0:-1]])


def _spectrum(hurst: float, n: int) -> np.ndarray:
    """Eigenvalues lambda(0..N) of the length-2N circulant wrapping
    gamma(0..N)."""
    return np.fft.rfft(_mirror(three_power_autocovariance(hurst, n))).real


def _complex_noise(rng, shape):
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def unfolded_fgn(spec) -> np.ndarray:
    n = spec.length
    lam = np.maximum(_spectrum(spec.hurst, n), 0.0)
    rng = np.random.default_rng(spec.seed)
    w = _mirror(np.sqrt(lam)) * _complex_noise(rng, 2 * n)
    return np.sqrt(2.0) * (np.fft.fft(w) / np.sqrt(w.size)).real[:n]


def unfolded_bfbm(spec) -> tuple[np.ndarray, np.ndarray]:
    """Both increment series; the per-frequency symmetric square root by
    spectral projectors, as in the package."""
    n = spec.length
    g_xx = _spectrum(spec.hurst_x, n)
    g_yy = _spectrum(spec.hurst_y, n)
    g_xy = spec.corr * _spectrum(0.5 * (spec.hurst_x + spec.hurst_y), n)
    mean = 0.5 * (g_xx + g_yy)
    radius = np.hypot(0.5 * (g_xx - g_yy), g_xy)
    lam_hi = np.maximum(mean + radius, 0.0)
    lam_lo = np.maximum(mean - radius, 0.0)
    sq_hi, sq_lo = np.sqrt(lam_hi), np.sqrt(lam_lo)
    iso = radius <= 1e-15 * (lam_hi.max() + 1e-300)
    denom = np.where(iso, 1.0, lam_hi - lam_lo)
    p11 = np.where(iso, 0.5, (g_xx - lam_lo) / denom)
    p22 = np.where(iso, 0.5, (g_yy - lam_lo) / denom)
    p12 = np.where(iso, 0.0, g_xy / denom)
    b11 = _mirror(sq_hi * p11 + sq_lo * (1.0 - p11))
    b22 = _mirror(sq_hi * p22 + sq_lo * (1.0 - p22))
    b12 = _mirror((sq_hi - sq_lo) * p12)
    rng = np.random.default_rng(spec.seed)
    eps = _complex_noise(rng, (2 * n, 2))
    w = np.empty_like(eps)
    w[:, 0] = b11 * eps[:, 0] + b12 * eps[:, 1]
    w[:, 1] = b12 * eps[:, 0] + b22 * eps[:, 1]
    sample = np.sqrt(2.0) * (np.fft.fft(w, axis=0) / np.sqrt(2 * n)).real
    return sample[:n, 0], sample[:n, 1]
