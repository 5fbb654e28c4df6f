"""Exact synthesis of test signals with known scaling properties.

Fractional Gaussian noise and the increments of a bivariate fractional
Brownian motion are sampled by circulant embedding of the exact
(cross-)covariance: the autocovariance of unit-variance FGN with Hurst
index H is

    gamma(k) = (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H)) / 2,

and the bivariate case uses the time-reversible ("well balanced")
cross-covariance rho * gamma_{Hxy}(k) with Hxy = (Hx + Hy)/2, so the
cross-Hurst index of the pair equals the mean of the component indices.
Sampling is exact in distribution, O(N log N), and deterministic given
the spec's seed.

Binomial measures come from the deterministic multiplicative cascade:
at each of k refinement steps every interval splits its mass into
fractions p (left) and 1-p (right).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TimeSeries, as_series
from .errors import (
    CoherenceError,
    ConfigError,
    GenerationError,
    ShapeError,
    SizeError,
)

# negative embedding eigenvalues below this fraction of the largest one are
# treated as roundoff and clamped to zero; anything larger is an error
EIGENVALUE_CLAMP = 1e-9

MAX_BINOMIAL_DEPTH = 24


def _check_hurst(value: float, name: str) -> float:
    if not (0.0 < value < 1.0):
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")
    return float(value)


@dataclass(frozen=True)
class FgnSpec:
    """Fractional Gaussian noise: Hurst index, length, seed."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        _check_hurst(self.hurst, "hurst")
        if self.length < 1:
            raise ConfigError(f"length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class BfbmSpec:
    """Bivariate FBM increments: per-component Hurst indices, instantaneous
    cross-correlation, length, seed.

    Not every (hurst_x, hurst_y, corr) triple admits a positive semidefinite
    bivariate covariance; inadmissible triples are rejected at generation
    time with a CoherenceError.
    """

    hurst_x: float
    hurst_y: float
    corr: float
    length: int
    seed: int

    def __post_init__(self):
        _check_hurst(self.hurst_x, "hurst_x")
        _check_hurst(self.hurst_y, "hurst_y")
        if not (-1.0 <= self.corr <= 1.0):
            raise ConfigError(f"corr must lie in [-1, 1], got {self.corr}")
        if self.length < 1:
            raise ConfigError(f"length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class BinomialSpec:
    """Binomial measure from the p-model: multiplier and cascade depth.
    The cascade is deterministic, so it takes no seed."""

    multiplier: float
    depth: int

    def __post_init__(self):
        if not (0.0 < self.multiplier < 1.0):
            raise ConfigError(
                f"multiplier must lie in (0, 1), got {self.multiplier}"
            )
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.depth > MAX_BINOMIAL_DEPTH:
            raise SizeError(
                f"depth {self.depth} would generate 2^{self.depth} points; "
                f"the limit is {MAX_BINOMIAL_DEPTH}"
            )


@dataclass(frozen=True)
class ContaminationSpec:
    """Additive contamination x(t) = intercept + slope * z(t) + r(t)."""

    intercept: float
    slope: float

    def __post_init__(self):
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise ConfigError("contamination coefficients must be finite")


def derive_seed(master: int, *path: int) -> int:
    """Deterministic 64-bit sub-seed for a (master, *path) stream address."""
    state = np.random.SeedSequence((int(master),) + tuple(int(p) for p in path))
    lo, hi = state.generate_state(2)
    return int(hi) << 32 | int(lo)


def fgn_autocovariance(hurst: float, max_lag: int) -> np.ndarray:
    """gamma(0..max_lag) of unit-variance FGN with the given Hurst index."""
    k = np.arange(max_lag + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2.0 * np.abs(k) ** h2
                  + np.abs(k - 1) ** h2)


def _mirror(half: np.ndarray) -> np.ndarray:
    """v(0..N) -> v(0), ..., v(N), v(N-1), ..., v(1): the first row of the
    length-2N circulant wrapping gamma(0..N), and equally its spectrum."""
    return np.concatenate([half, half[-2:0:-1]])


def _spectrum(gamma: np.ndarray) -> np.ndarray:
    """Eigenvalues lambda(0..N) of the circulant embedding of gamma(0..N).

    The row is real and symmetric, so its spectrum is real and symmetric:
    the real-input FFT gives the first half, ``_mirror`` the rest.
    """
    return np.fft.rfft(_mirror(gamma)).real


def _complex_noise(rng: np.random.Generator, shape) -> np.ndarray:
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def gen_fgn(spec: FgnSpec) -> TimeSeries:
    """Sample unit-variance fractional Gaussian noise, exactly distributed."""
    n = spec.length
    lam = _spectrum(fgn_autocovariance(spec.hurst, n))
    lam_max = lam.max()
    if lam.min() < -EIGENVALUE_CLAMP * lam_max:
        raise GenerationError(
            f"circulant spectrum has negative value {lam.min():.3e} "
            f"for hurst={spec.hurst}, length={n}"
        )
    lam = np.maximum(lam, 0.0)
    rng = np.random.default_rng(spec.seed)
    w = _mirror(np.sqrt(lam)) * _complex_noise(rng, 2 * n)
    sample = np.sqrt(2.0) * (np.fft.fft(w) / np.sqrt(w.size)).real[:n]
    return TimeSeries(sample, label=f"fgn_h{spec.hurst:g}")


def gen_bfbm_increments(spec: BfbmSpec) -> tuple[TimeSeries, TimeSeries]:
    """Sample the two increment series of a bivariate FBM.

    Each component is marginally FGN with its own Hurst index, the zero-lag
    cross-correlation equals ``spec.corr``, and the cross-covariance decays
    with the cross-Hurst index (hurst_x + hurst_y) / 2.
    """
    n = spec.length
    h_cross = 0.5 * (spec.hurst_x + spec.hurst_y)
    g_xx = _spectrum(fgn_autocovariance(spec.hurst_x, n))
    g_yy = _spectrum(fgn_autocovariance(spec.hurst_y, n))
    g_xy = spec.corr * _spectrum(fgn_autocovariance(h_cross, n))

    # eigenvalues of the per-frequency 2x2 spectral matrices, frequencies
    # 0..N; the rest mirror them
    mean = 0.5 * (g_xx + g_yy)
    radius = np.hypot(0.5 * (g_xx - g_yy), g_xy)
    lam_hi = mean + radius
    lam_lo = mean - radius
    lam_max = lam_hi.max()
    if lam_lo.min() < -EIGENVALUE_CLAMP * lam_max:
        raise CoherenceError(
            f"(hurst_x={spec.hurst_x}, hurst_y={spec.hurst_y}, "
            f"corr={spec.corr}) does not admit a positive semidefinite "
            f"covariance (min eigenvalue {lam_lo.min():.3e})"
        )
    lam_hi = np.maximum(lam_hi, 0.0)
    lam_lo = np.maximum(lam_lo, 0.0)

    # symmetric PSD square root per frequency, via spectral projectors
    sq_hi, sq_lo = np.sqrt(lam_hi), np.sqrt(lam_lo)
    iso = radius <= 1e-15 * (lam_max + 1e-300)
    denom = np.where(iso, 1.0, lam_hi - lam_lo)
    p11 = np.where(iso, 0.5, (g_xx - lam_lo) / denom)
    p22 = np.where(iso, 0.5, (g_yy - lam_lo) / denom)
    p12 = np.where(iso, 0.0, g_xy / denom)
    b11 = sq_hi * p11 + sq_lo * (1.0 - p11)
    b22 = sq_hi * p22 + sq_lo * (1.0 - p22)
    b12 = (sq_hi - sq_lo) * p12
    b11, b22, b12 = _mirror(b11), _mirror(b22), _mirror(b12)

    rng = np.random.default_rng(spec.seed)
    eps = _complex_noise(rng, (2 * n, 2))
    w = np.empty_like(eps)
    w[:, 0] = b11 * eps[:, 0] + b12 * eps[:, 1]
    w[:, 1] = b12 * eps[:, 0] + b22 * eps[:, 1]
    sample = np.sqrt(2.0) * (np.fft.fft(w, axis=0) / np.sqrt(w.shape[0])).real
    return (TimeSeries(sample[:n, 0], label=f"rx_h{spec.hurst_x:g}"),
            TimeSeries(sample[:n, 1], label=f"ry_h{spec.hurst_y:g}"))


def gen_binomial(spec: BinomialSpec) -> TimeSeries:
    """Binomial measure of length 2^depth; total mass is exactly 1 up to
    roundoff."""
    measure = np.array([1.0])
    split = np.array([spec.multiplier, 1.0 - spec.multiplier])
    for _ in range(spec.depth):
        measure = np.kron(measure, split)
    return TimeSeries(measure, label=f"binomial_p{spec.multiplier:g}")


def contaminate(r, z, spec: ContaminationSpec) -> TimeSeries:
    """Apply the additive model intercept + slope * z + r, elementwise."""
    rs, zs = as_series(r), as_series(z)
    if len(rs) != len(zs):
        raise ShapeError(
            f"residual length {len(rs)} != driver length {len(zs)}"
        )
    return TimeSeries(spec.intercept + spec.slope * zs.values + rs.values,
                      label=rs.label)
