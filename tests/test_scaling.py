import warnings

import numpy as np
import pytest

from dpxa import (
    BinomialSpec,
    ConfigError,
    FgnSpec,
    InsufficientScalesError,
    QGrid,
    ScaleGrid,
    ScalingFit,
    binomial_hurst,
    binomial_mass_exponent,
    fit_exponent,
    fluctuation_dfa,
    full_fit,
    gen_binomial,
    gen_fgn,
    joint_binomial_mass_exponent,
    legendre,
    mass_exponents,
)
from dpxa.errors import ExcludedScaleWarning, SpectrumValidityWarning
from dpxa.fluctuation import FluctuationSurface
from dpxa.scaling import fit_slopes


def synthetic_surface(scales, orders, F, cov2=None):
    scales = ScaleGrid(scales)
    orders = QGrid(orders)
    F = np.asarray(F, float)
    if cov2 is None:
        cov2 = F[-1] ** 2
    zeros = np.zeros(len(scales), dtype=int)
    return FluctuationSurface(scales, orders, F, cov2, "DFA", zeros, zeros)


def test_exact_power_law():
    s = np.array([10, 20, 40, 80, 160])
    surface = synthetic_surface(s, [2.0], [3.0 * s ** 0.5])
    fit = fit_exponent(surface)
    assert fit.h[0] == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared[0] == pytest.approx(1.0, abs=1e-12)
    assert fit.fit_range == (10, 160)


def test_fit_range_narrowing():
    s = np.array([10, 20, 40, 80, 160, 320])
    F = 2.0 * s ** 0.7
    F[0] *= 10  # corrupt the smallest scale
    surface = synthetic_surface(s, [2.0], [F])
    full = fit_exponent(surface)
    narrowed = fit_exponent(surface, fit_range=(20, 320))
    assert abs(narrowed.h[0] - 0.7) < abs(full.h[0] - 0.7)
    assert narrowed.h[0] == pytest.approx(0.7, abs=1e-12)
    assert narrowed.fit_range == (20, 320)


def test_insufficient_scales():
    s = np.array([10, 20, 40, 80])
    surface = synthetic_surface(s, [2.0], [s ** 0.5])
    with pytest.raises(InsufficientScalesError):
        fit_exponent(surface, fit_range=(10, 40))


def test_nonpositive_points_excluded_with_warning():
    s = np.array([10, 20, 40, 80, 160])
    F = 1.0 * s ** 0.5
    F[2] = 0.0
    surface = synthetic_surface(s, [2.0], [F])
    with pytest.warns(ExcludedScaleWarning):
        fit = fit_exponent(surface)
    assert fit.h[0] == pytest.approx(0.5, abs=1e-12)


def test_fit_invariant_under_positive_scaling():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096)
    grid = ScaleGrid.default(4096)
    q = QGrid.second_order()
    h1 = fit_exponent(fluctuation_dfa(x, grid, q)).h[0]
    h2 = fit_exponent(fluctuation_dfa(7.25 * x, grid, q)).h[0]
    assert h1 == pytest.approx(h2, abs=1e-12)


def test_dfa_recovers_strong_persistence():
    # 20-seed average at N = 65536 lands within 0.03 of H = 0.9
    hs = []
    for seed in range(20):
        x = gen_fgn(FgnSpec(0.9, 65536, 1000 + seed))
        grid = ScaleGrid.default(65536)
        hs.append(fit_exponent(fluctuation_dfa(x, grid,
                                               QGrid.second_order())).h[0])
    assert abs(np.mean(hs) - 0.9) <= 0.03


def test_mass_exponent_examples():
    fit = ScalingFit(QGrid([-4.0, 0.0, 4.0]), np.full(3, 0.5),
                     np.zeros(3), np.ones(3), (10, 100))
    tau = mass_exponents(fit).tau
    assert tau == pytest.approx([-3.0, -1.0, 1.0])


def test_tau_at_zero_is_minus_one():
    rng = np.random.default_rng(1)
    fit = ScalingFit(QGrid([-2.0, 0.0, 2.0]), rng.uniform(0.2, 0.9, 3),
                     np.zeros(3), np.ones(3), (10, 100))
    assert mass_exponents(fit).tau[1] == pytest.approx(-1.0)


def test_legendre_monofractal():
    q = np.linspace(-4, 4, 9)
    fit = ScalingFit(QGrid(q), np.full(9, 0.5), np.zeros(9), np.ones(9),
                     (10, 100))
    fit = legendre(mass_exponents(fit))
    interior = slice(1, -1)
    assert np.allclose(fit.alpha[interior], 0.5, atol=1e-12)
    assert np.allclose(fit.f_alpha[interior], 1.0, atol=1e-12)
    assert np.isnan(fit.alpha[0]) and np.isnan(fit.alpha[-1])


def test_legendre_requires_tau_and_enough_orders():
    fit = ScalingFit(QGrid([2.0]), np.array([0.5]), np.zeros(1), np.ones(1),
                     (10, 100))
    with pytest.raises(ConfigError):
        legendre(fit)
    with pytest.raises(ConfigError):
        legendre(mass_exponents(fit))


def test_spectrum_validity_warning():
    q = np.linspace(-2, 2, 9)
    tau_convex = q * 0.5 - 1 + 0.05 * q ** 2  # alpha increasing in q
    fit = ScalingFit(QGrid(q), (tau_convex + 1) / np.where(q == 0, 1, q),
                     np.zeros(9), np.ones(9), (10, 100))
    fit = ScalingFit(fit.orders, fit.h, fit.h_stderr, fit.r_squared,
                     fit.fit_range, tau=tau_convex)
    with pytest.warns(SpectrumValidityWarning):
        legendre(fit)


# --------------------------------------------------------------------------- #
# binomial cascade references

def partition_mass_exponents(measure, qs, box_exponents):
    """Brute-force oracle: box-sum partition function at dyadic scales,
    slope of log2 Z(q) against log2 of the box fraction."""
    T = measure.size
    k = int(np.log2(T))
    taus = []
    for q in qs:
        log_z, log_eps = [], []
        for m in box_exponents:
            s = 2 ** m
            boxes = measure[: (T // s) * s].reshape(-1, s).sum(axis=1)
            log_z.append(np.log2(np.sum(boxes ** q)))
            log_eps.append(m - k)
        taus.append(np.polyfit(log_eps, log_z, 1)[0])
    return np.array(taus)


def test_partition_oracle_confirms_closed_form():
    measure = gen_binomial(BinomialSpec(0.3, 14)).values
    qs = np.array([-4.0, -2.0, 0.0, 1.0, 2.0, 4.0])
    oracle = partition_mass_exponents(measure, qs, range(2, 13))
    closed = binomial_mass_exponent(qs, 0.3)
    assert np.max(np.abs(oracle - closed)) <= 1e-9
    # tau(1) = 0 and tau(0) = -1 exactly
    assert closed[3] == pytest.approx(0.0)
    assert closed[2] == pytest.approx(-1.0)


def test_binomial_hurst_limit_at_zero():
    h0 = binomial_hurst(0.0, 0.3)
    assert h0 == pytest.approx(-0.5 * (np.log2(0.3) + np.log2(0.7)))
    # continuous through zero
    assert abs(binomial_hurst(1e-7, 0.3) - h0) <= 1e-6


def test_joint_binomial_curve_is_mean_of_components():
    q = np.linspace(-4, 4, 17)
    joint = joint_binomial_mass_exponent(q, 0.3, 0.4)
    hx, hy = binomial_hurst(q, 0.3), binomial_hurst(q, 0.4)
    assert np.allclose(joint, q * (hx + hy) / 2 - 1)
    assert joint[q == 0][0] == pytest.approx(-1.0)


def test_binomial_spectrum_endpoints():
    # alpha at q = +-4 from the analytic derivative of tau
    p = 0.3
    measure = gen_binomial(BinomialSpec(p, 16)).values
    grid = ScaleGrid.dyadic(2 ** 16, s_min=1024)
    fit = full_fit(fluctuation_dfa(measure, grid, QGrid.default()))

    def alpha_analytic(q):
        w = np.array([p, 1 - p])
        num = -(w[0] ** q * np.log(w[0]) + w[1] ** q * np.log(w[1]))
        return num / ((w[0] ** q + w[1] ** q) * np.log(2))

    q = fit.orders.orders
    inner = np.isfinite(fit.alpha)
    # spectrum apex sits at f ~= 1 (support dimension) near q = 0
    assert fit.f_alpha[q == 0][0] == pytest.approx(1.0, abs=0.02)
    # endpoints head toward the analytic limits -log2(0.7), -log2(0.3)
    assert fit.alpha[inner].min() == pytest.approx(alpha_analytic(3.5),
                                                   abs=0.05)
    assert fit.alpha[inner].max() == pytest.approx(alpha_analytic(-3.5),
                                                   abs=0.08)
    assert -np.log2(0.7) < fit.alpha[inner].min() < fit.alpha[inner].max() \
        < -np.log2(0.3)
    # everywhere below the support dimension
    assert np.nanmax(fit.f_alpha) <= 1.0 + 1e-6
    # alpha non-increasing in q: no validity warning for the cascade
    with warnings.catch_warnings():
        warnings.simplefilter("error", SpectrumValidityWarning)
        legendre(mass_exponents(fit_exponent(
            fluctuation_dfa(measure, grid, QGrid.default()))))


def test_monofractal_fgn_h_spread():
    spreads = []
    for seed in range(20):
        x = gen_fgn(FgnSpec(0.5, 65536, 500 + seed))
        fit = fit_exponent(fluctuation_dfa(x, ScaleGrid.default(65536),
                                           QGrid.default()))
        spreads.append(fit.h.max() - fit.h.min())
    assert np.mean(spreads) <= 0.08


def test_fit_matches_linregress_per_q():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(17)
    s = ScaleGrid.default(2 ** 14).scales
    orders = np.linspace(-4.0, 4.0, 9)
    F = np.exp(np.outer(0.3 + 0.1 * orders, np.log(s))
               + 0.05 * rng.standard_normal((orders.size, s.size)))
    F[1, [0, 5]] = 0.0      # each q keeps its own usable scales
    F[4, 7] = np.inf
    surface = synthetic_surface(s, orders, F)
    with pytest.warns(ExcludedScaleWarning):
        fit = fit_exponent(surface, fit_range=(int(s[1]), int(s[-2])))
    in_range = (s >= s[1]) & (s <= s[-2])
    for i in range(orders.size):
        usable = in_range & np.isfinite(F[i]) & (F[i] > 0)
        res = stats.linregress(np.log(s[usable]), np.log(F[i, usable]))
        assert fit.h[i] == pytest.approx(res.slope, rel=1e-12, abs=0)
        assert fit.h_stderr[i] == pytest.approx(res.stderr, rel=1e-12, abs=0)
        assert fit.r_squared[i] == pytest.approx(res.rvalue ** 2, rel=1e-12,
                                                 abs=0)


def test_rows_fitted_at_once_equal_their_own_fits():
    # the sweep fits its eight q = 2 rows in one pass; every row keeps its
    # own usable scales and gets the exponent of its own fit, exactly
    rng = np.random.default_rng(5)
    s = ScaleGrid.default(2 ** 14).scales
    F = np.exp(np.outer(rng.uniform(0.1, 0.9, 8), np.log(s))
               + 0.05 * rng.standard_normal((8, s.size)))
    F[3, [2, 9]] = 0.0
    with pytest.warns(ExcludedScaleWarning) as record:
        together = fit_slopes(s, F, np.full(8, 2.0), s > 0)
    assert [str(w.message) for w in record
            if w.category is ExcludedScaleWarning] == \
        ["excluded 2 non-positive F(q=2, s) points from the fit"]
    for i in range(8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExcludedScaleWarning)
            fit = fit_exponent(synthetic_surface(s, [2.0], F[i:i + 1]))
        assert [v[i] for v in together] == \
            [fit.h[0], fit.h_stderr[0], fit.r_squared[0]]
    F[5, 3:] = 0.0
    with pytest.raises(InsufficientScalesError, match="only 3 usable"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExcludedScaleWarning)
            fit_slopes(s, F, np.full(8, 2.0), s > 0)
