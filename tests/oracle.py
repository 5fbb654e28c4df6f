"""Reference forms the package is tested against.

Single-window forms of the window kernel's steps: force regression,
profile, local trend and mean product, one window at a time. They share no
code with ``dpxa.detrend.window_products`` and serve as its test oracle.
``longdouble_products`` detrends every window explicitly in extended
precision, the reference for the kernel's rounding error.

The unfolded circulant-embedding synthesis: complex noise over all 2N
frequencies and one complex FFT of length 2N, keeping the real part of the
first N outputs. It shares no code with ``dpxa.generators``, draws the same
noise in the same order, and serves as the generators' test oracle.

The contamination model x = intercept + slope z + r applied elementwise,
and the contaminated pairs of the experiments written out by hand, one
formula per pair, as the bitwise reference of their table-driven
evaluation."""

import warnings

import numpy as np

from dpxa.core import TimeSeries, as_series
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
    """The (pairs, T // s) ``f2`` of ``window_products`` at the one size s,
    rebuilt window by window: window_ols -> profile -> local_trend ->
    window_cov. The last ``regressed`` of the k rows are
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


def _orthonormal(columns) -> list:
    """Orthonormalise the (M, s) windows of each column, in order, by
    twice-repeated Gram-Schmidt along the last axis."""
    basis = []
    for v in columns:
        for _ in range(2):
            for u in basis:
                v = v - (v * u).sum(axis=-1, keepdims=True) * u
        basis.append(v / np.sqrt((v * v).sum(axis=-1, keepdims=True)))
    return basis


def longdouble_products(rows, s, order, pairs, forces=None):
    """Mean products of the explicitly detrended profiles of each row pair
    in every size-s window, in np.longdouble: the increments are centred
    per window, regressed on the centred windows of the (p, T) ``forces``
    when given, cumulated, and projected off a polynomial basis of the
    given order. Both the force windows and the polynomials are
    orthonormalised by twice-repeated Gram-Schmidt. Returns the
    (len(pairs), M) products and each row's (k, M) own products."""
    L = np.longdouble
    k, T = rows.shape
    M = T // s

    def centred(series):
        X = series[..., : M * s].reshape(*series.shape[:-1], M, s).astype(L)
        return X - X.mean(axis=-1, keepdims=True)

    X = centred(rows)
    if forces is not None:
        for u in _orthonormal(centred(z) for z in forces):
            X = X - (X * u).sum(axis=-1, keepdims=True) * u
    P = np.cumsum(X, axis=2)
    t = np.arange(s, dtype=L) - L(s - 1) / 2
    Q = np.stack(_orthonormal(t ** j for j in range(order + 1)), axis=1)
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


def folded_sample(weights, seed: int, n: int) -> list:
    """The folded sampler's arithmetic, written plainly: the folds
    re(t) + re(-t) and im(-t) - im(t), t = 0..N, of two (2N, p) draws,
    the spectrum of component c summed product by product from their
    columns, and the first N points of its inverse FFT scaled. The
    package stores these numbers differently and must match bitwise."""
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal((2 * n, len(weights))) for _ in range(2)]
    back = np.arange(0, -n - 1, -1) % (2 * n)
    re = draws[0][:n + 1] + draws[0][back]
    im = draws[1][back] - draws[1][:n + 1]
    samples = []
    for row in weights:
        spectrum = np.empty(n + 1, dtype=complex)
        spectrum.real = row[0] * re[:, 0]
        spectrum.imag = row[0] * im[:, 0]
        for j in range(1, len(row)):
            spectrum.real = spectrum.real + row[j] * re[:, j]
            spectrum.imag = spectrum.imag + row[j] * im[:, j]
        samples.append(np.fft.irfft(spectrum, 2 * n)[:n] * np.sqrt(0.5 * n))
    return samples


def contaminate(r, z, spec) -> TimeSeries:
    """Apply the additive model intercept + slope * z + r of the
    ``ContaminationSpec`` spec, elementwise."""
    rs, zs = as_series(r), as_series(z)
    if len(rs) != len(zs):
        raise ShapeError(
            f"residual length {len(rs)} != driver length {len(zs)}"
        )
    return TimeSeries(spec.intercept + spec.slope * zs.values + rs.values)


# the pairs ``contaminated_rows`` returns, in its row order
CONTAMINATED_PAIRS = (("rx", "rx"), ("ry", "ry"), ("z", "z"), ("x", "x"),
                      ("y", "y"), ("x", "y"), ("rx", "ry"), ("x|z", "y|z"),
                      ("x|z", "x|z"), ("y|z", "y|z"))


def contaminated_rows(f2, slopes, beta_x, beta_y) -> np.ndarray:
    """The window products of ``CONTAMINATED_PAIRS`` from the products
    (rx rx, ry ry, z z, rx ry, rx z, ry z) ``f2`` of the stack (rx, ry, z),
    with x = b0 + b1 z + rx, y = b0' + b2 z + ry and the per-window OLS
    slopes ``slopes`` = (a_x, a_y) of rx and ry on z:

    F2_xx = F2_rxrx + 2 b1 F2_rxz + b1^2 F2_zz,
    F2_yy = F2_ryry + 2 b2 F2_ryz + b2^2 F2_zz,
    F2_xy = F2_rxry + b2 F2_rxz + b1 F2_zry + b1 b2 F2_zz,
    F2_x|z,y|z = F2_rxry - a_y F2_rxz - a_x F2_zry + a_x a_y F2_zz,
    F2_x|z,x|z = F2_rxrx - 2 a_x F2_rxz + a_x^2 F2_zz, and likewise y|z."""
    rxrx, ryry, zz, rxry, rxz, ryz = f2
    b1, b2 = beta_x.slope, beta_y.slope
    ax, ay = slopes
    xx = rxrx + 2.0 * b1 * rxz + b1 * b1 * zz
    yy = ryry + 2.0 * b2 * ryz + b2 * b2 * zz
    xy = rxry + b2 * rxz + b1 * ryz + b1 * b2 * zz
    return np.stack([rxrx, ryry, zz, xx, yy, xy, rxry,
                     rxry - ay * rxz - ax * ryz + ax * ay * zz,
                     rxrx - 2.0 * ax * rxz + ax * ax * zz,
                     ryry - 2.0 * ay * ryz + ay * ay * zz])
