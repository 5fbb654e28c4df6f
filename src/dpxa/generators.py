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

The circulant of length 2N that wraps gamma(0..N) has a real spectrum
with lambda(t) = lambda(2N - t), so its square-root factor a(t) (a 2x2
matrix per frequency in the bivariate case) is mirror-symmetric too. The
sample is the real part of the first N outputs of the length-2N FFT of
a * (re + i im), over sqrt(2N), where re and im are two standard normal
draws of shape (2N, p) for p components, real part first. Those outputs
see the noise only through the folded pairs re(t) + re(2N - t) and
im(2N - t) - im(t), t = 0..N, indices mod 2N. So one sampler serves both
generators: it folds each draw into a real (N+1, p) array, writes the
spectrum sum_j a_cj(t) (re_j + i im_j) of component c with real
multiplies, and takes one inverse real FFT of length 2N per component.
FGN passes the 1x1 factor sqrt(lambda), the bivariate case the
symmetric 2x2 root.

Only the noise and its transform depend on the seed. The square-root
weights a(0..N) come from the spectrum of each distinct Hurst index, once
it has passed the positive-semidefinite check; they are cached per
process for the last few (Hurst indices, corr, N), read-only, so a
Monte-Carlo loop over seeds computes them once.

Binomial measures come from the deterministic multiplicative cascade:
at each of k refinement steps every interval splits its mass into
fractions p (left) and 1-p (right).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import TimeSeries, _resident_array, as_series
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
    """gamma(0..max_lag) of unit-variance FGN with the given Hurst index:
    half the second difference of k^(2H), k = 0..max_lag+1, where the
    |k-1| of lag 0 is 1."""
    power = np.arange(max_lag + 2, dtype=float) ** (2.0 * hurst)
    below = np.concatenate((power[1:2], power[:-2]))
    return 0.5 * (power[1:] - 2.0 * power[:-1] + below)


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


def _fold(draw: np.ndarray, combine) -> np.ndarray:
    """combine(draw(t), draw(-t)) for t = 0..N along axis 0, indices mod 2N."""
    n = draw.shape[0] // 2
    out = np.empty((n + 1, *draw.shape[1:]))
    combine(draw[:1], draw[:1], out=out[:1])
    combine(draw[1:n + 1], draw[:n - 1:-1], out=out[1:])
    return out


def _weigh(row, fold: np.ndarray, out: np.ndarray) -> None:
    """sum_j row[j] * fold[:, j] into ``out``, one temporary at a time."""
    np.multiply(row[0], fold[:, 0], out=out)
    for j in range(1, len(row)):
        out += row[j] * fold[:, j]


def _sample(weights, seed: int, n: int) -> list[np.ndarray]:
    """The N-point samples of the p components whose spectra are
    sum_j weights[c][j] (re_j + i im_j), from the folds of two (2N, p)
    standard normal draws, real part first; one inverse real FFT per
    component gives sqrt(2N) * irfft(w / 2, 2N)[:N]."""
    rng = np.random.default_rng(seed)
    re = _fold(rng.standard_normal((2 * n, len(weights))), np.add)
    im = _fold(rng.standard_normal((2 * n, len(weights))),
               lambda a, b, out: np.subtract(b, a, out=out))
    # allocated after the draws: allocated before them, it left glibc's heap
    # untrimmed between calls (2 MB more peak RSS in a rho run at N = 2^16)
    w = np.empty((len(weights), n + 1), dtype=complex)
    for spectrum, row in zip(w, weights):
        _weigh(row, re, spectrum.real)
        _weigh(row, im, spectrum.imag)
    del re, im  # freed before the transforms allocate their outputs
    samples = [np.fft.irfft(spectrum, 2 * n)[:n] for spectrum in w]
    for sample in samples:
        sample *= math.sqrt(0.5 * n)
    return samples


# factors kept per process and generator: a sweep task needs one of each
# kind, and at N = 2^16 an entry takes 0.5 MB (fgn) or 1.5 MB (bfbm)
_CACHED_FACTORS = 4


@lru_cache(maxsize=_CACHED_FACTORS)
def _fgn_factor(hurst: float, length: int) -> np.ndarray:
    """The seed-independent part of ``gen_fgn``: the square-root weights
    sqrt(lambda(0..N)) of the circulant embedding, once its spectrum has
    passed the positive-semidefinite check."""
    lam = _spectrum(fgn_autocovariance(hurst, length))
    lam_max = lam.max()
    if lam.min() < -EIGENVALUE_CLAMP * lam_max:
        raise GenerationError(
            f"circulant spectrum has negative value {lam.min():.3e} "
            f"for hurst={hurst}, length={length}"
        )
    return _resident_array(np.sqrt(np.maximum(lam, 0.0)))


def gen_fgn(spec: FgnSpec) -> TimeSeries:
    """Sample unit-variance fractional Gaussian noise, exactly distributed."""
    return TimeSeries(_sample([[_fgn_factor(spec.hurst, spec.length)]],
                              spec.seed, spec.length)[0])


@lru_cache(maxsize=_CACHED_FACTORS)
def _bfbm_factor(hurst_x: float, hurst_y: float, corr: float,
                 length: int) -> np.ndarray:
    """The seed-independent part of ``gen_bfbm_increments``: the entries
    (b11, b12, b22) of the symmetric square root of the 2x2 spectral
    matrix at each of the N+1 frequencies, a (3, N+1) array. Raises
    CoherenceError when the triple admits no positive semidefinite
    covariance."""
    h_cross = 0.5 * (hurst_x + hurst_y)
    spectra = {h: _spectrum(fgn_autocovariance(h, length))
               for h in {hurst_x, hurst_y, h_cross}}
    g_xx = spectra[hurst_x]
    g_yy = spectra[hurst_y]
    g_xy = corr * spectra[h_cross]

    # eigenvalues of the per-frequency 2x2 spectral matrices, frequencies
    # 0..N; the rest mirror them
    mean = 0.5 * (g_xx + g_yy)
    radius = np.hypot(0.5 * (g_xx - g_yy), g_xy)
    lam_hi = mean + radius
    lam_lo = mean - radius
    lam_max = lam_hi.max()
    if lam_lo.min() < -EIGENVALUE_CLAMP * lam_max:
        raise CoherenceError(
            f"(hurst_x={hurst_x}, hurst_y={hurst_y}, corr={corr}) does not "
            f"admit a positive semidefinite covariance (min eigenvalue "
            f"{lam_lo.min():.3e})"
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
    return _resident_array(np.stack([sq_hi * p11 + sq_lo * (1.0 - p11),
                                     (sq_hi - sq_lo) * p12,
                                     sq_hi * p22 + sq_lo * (1.0 - p22)]))


def gen_bfbm_increments(spec: BfbmSpec) -> tuple[TimeSeries, TimeSeries]:
    """Sample the two increment series of a bivariate FBM.

    Each component is marginally FGN with its own Hurst index, the zero-lag
    cross-correlation equals ``spec.corr``, and the cross-covariance decays
    with the cross-Hurst index (hurst_x + hurst_y) / 2.
    """
    n = spec.length
    b11, b12, b22 = _bfbm_factor(spec.hurst_x, spec.hurst_y, spec.corr, n)
    x, y = _sample([[b11, b12], [b12, b22]], spec.seed, n)
    return TimeSeries(x), TimeSeries(y)


def gen_binomial(spec: BinomialSpec) -> TimeSeries:
    """Binomial measure of length 2^depth; total mass is exactly 1 up to
    roundoff."""
    measure = np.array([1.0])
    split = np.array([spec.multiplier, 1.0 - spec.multiplier])
    for _ in range(spec.depth):
        measure = np.kron(measure, split)
    return TimeSeries(measure)


def contaminate(r, z, spec: ContaminationSpec) -> TimeSeries:
    """Apply the additive model intercept + slope * z + r, elementwise."""
    rs, zs = as_series(r), as_series(z)
    if len(rs) != len(zs):
        raise ShapeError(
            f"residual length {len(rs)} != driver length {len(zs)}"
        )
    return TimeSeries(spec.intercept + spec.slope * zs.values + rs.values)
