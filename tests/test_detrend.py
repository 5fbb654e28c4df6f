import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpxa import (
    ConfigError,
    DetrendConfig,
    ForceMatrix,
    ShapeError,
    WindowTooSmallError,
)
from dpxa.detrend import window_products
from dpxa.errors import RankDeficiencyWarning
from oracle import local_trend, oracle_products, profile, window_ols


def ols_line(k, y):
    """Independent oracle: simple regression via explicit normal equations."""
    k = np.asarray(k, float)
    y = np.asarray(y, float)
    kbar, ybar = k.mean(), y.mean()
    slope = np.sum((k - kbar) * (y - ybar)) / np.sum((k - kbar) ** 2)
    intercept = ybar - slope * kbar
    return intercept, slope


def test_window_ols_perfect_fit():
    z = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    beta, res = window_ols(z, z.reshape(-1, 1), with_intercept=False)
    assert beta == pytest.approx([1.0])
    assert np.allclose(res, 0.0, atol=1e-12)


def test_window_ols_intercept_absorbs_constant():
    x = np.full(6, 3.7)
    beta, res = window_ols(x, np.empty((6, 0)), with_intercept=True)
    assert beta == pytest.approx([3.7])
    assert np.allclose(res, 0.0, atol=1e-12)


def test_window_ols_known_coefficients():
    # oracle: normal equations on x = a + b*z
    x = np.array([1.0, 2.0, 4.0, 8.0])
    z = np.array([1.0, 2.0, 3.0, 4.0])
    a, b = ols_line(z, x)
    assert (a, b) == pytest.approx((-2.0, 2.3))
    beta, res = window_ols(x, z.reshape(-1, 1), with_intercept=True)
    assert beta == pytest.approx([-2.0, 2.3])
    assert res == pytest.approx([0.7, -0.6, -0.9, 0.8])


@pytest.mark.parametrize("case", range(20))
def test_window_ols_orthogonality(case):
    rng = np.random.default_rng(case)
    s = int(rng.integers(8, 60))
    p = int(rng.integers(1, 4))
    Z = rng.standard_normal((s, p))
    x = rng.standard_normal(s) * rng.uniform(0.5, 50.0)
    beta, res = window_ols(x, Z, with_intercept=True)
    design = np.column_stack([np.ones(s), Z])
    for j in range(design.shape[1]):
        col = design[:, j]
        bound = 1e-8 * np.linalg.norm(res) * np.linalg.norm(col)
        assert abs(res @ col) <= bound + 1e-14
    assert abs(res.sum()) <= 1e-9 * np.abs(x).sum()


def test_window_ols_identity_without_design():
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    beta, res = window_ols(x, np.empty((5, 0)), with_intercept=False)
    assert beta.size == 0
    assert np.array_equal(res, x)


def test_window_ols_rank_deficient_warns():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(12)
    Z = np.column_stack([z, z])  # duplicated column
    x = rng.standard_normal(12)
    with pytest.warns(RankDeficiencyWarning):
        beta, res = window_ols(x, Z, with_intercept=True)
    # projection is still unique: residuals orthogonal to the column space
    assert abs(res @ z) <= 1e-8 * np.linalg.norm(res) * np.linalg.norm(z)


def test_window_ols_too_small():
    with pytest.raises(WindowTooSmallError):
        window_ols(np.ones(2), np.ones((2, 2)), with_intercept=False)
    with pytest.raises(WindowTooSmallError):
        window_ols(np.ones(3), np.ones((3, 2)), with_intercept=True)


def test_window_ols_shape_mismatch():
    with pytest.raises(ShapeError):
        window_ols(np.ones(4), np.ones((5, 1)), with_intercept=False)


def test_profile_examples():
    assert profile([1, 1, 1]).tolist() == [1, 2, 3]
    assert profile([1, -1, 1, -1]).tolist() == [1, 0, 1, 0]


def test_profile_of_intercept_residuals_ends_at_zero():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(40)
    _, res = window_ols(x, np.empty((40, 0)), with_intercept=True)
    assert abs(profile(res)[-1]) <= 1e-12 * np.abs(x).sum()


def test_local_trend_exact_line():
    p = np.array([1.0, 2.0, 3.0, 4.0])
    trend = local_trend(p, DetrendConfig(poly_order=1))
    assert trend == pytest.approx(p.tolist(), abs=1e-12)


def test_local_trend_exact_parabola():
    p = np.array([1.0, 4.0, 9.0, 16.0])
    trend = local_trend(p, DetrendConfig(poly_order=2))
    assert trend == pytest.approx(p.tolist(), abs=1e-10)


def test_local_trend_alternating_profile():
    # oracle values from the explicit normal equations on k = 1..6
    p = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    a, b = ols_line(np.arange(1, 7), p)
    expected = a + b * np.arange(1, 7)
    assert expected == pytest.approx(
        [0.2857142857, 0.3714285714, 0.4571428571,
         0.5428571429, 0.6285714286, 0.7142857143])
    trend = local_trend(p, DetrendConfig(poly_order=1))
    assert trend == pytest.approx(expected.tolist(), abs=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_polynomial_detrend_annihilates_low_degree(order):
    rng = np.random.default_rng(order)
    k = np.arange(24, dtype=float)
    coeffs = rng.uniform(-2, 2, size=order + 1)
    p = sum(c * k ** j for j, c in enumerate(coeffs))
    trend = local_trend(p, DetrendConfig(poly_order=order))
    assert np.max(np.abs(p - trend)) <= 1e-9 * (1 + np.max(np.abs(p)))


def test_local_trend_order_too_high():
    with pytest.raises(ConfigError):
        local_trend(np.arange(4.0), DetrendConfig(poly_order=3))


def test_moving_average_trend():
    # constant profile: every shrunken centered mean is the constant itself
    p = np.full(8, 2.5)
    cfg = DetrendConfig(method="moving_average")
    assert local_trend(p, cfg) == pytest.approx([2.5] * 8)

    # independent naive oracle with the same centering convention
    rng = np.random.default_rng(1)
    p = rng.standard_normal(9)
    s = p.size
    left = (s - 1) // 2
    right = s - 1 - left
    expected = [p[max(0, k - left): min(s, k + right + 1)].mean()
                for k in range(s)]
    assert local_trend(p, cfg) == pytest.approx(expected)


def test_detrend_config_validation():
    with pytest.raises(ConfigError):
        DetrendConfig(method="wavelet")
    with pytest.raises(ConfigError):
        DetrendConfig(poly_order=-1)


def test_force_matrix():
    fm = ForceMatrix.from_series([[1.0, 2.0], [3.0, 4.0]])
    assert fm.p == 2 and fm.length == 2
    assert ForceMatrix.empty(5).p == 0
    with pytest.raises(ShapeError):
        ForceMatrix.from_series([[1.0, 2.0], [3.0]])


@pytest.mark.parametrize("seed", range(5))
def test_batched_engine_matches_single_window_ops(seed):
    rng = np.random.default_rng(seed)
    T, s = 240, 24
    rows = rng.standard_normal((2, T))
    Z = rng.standard_normal((T, 2))
    cfg = DetrendConfig(poly_order=1)
    pairs = ((0, 0), (0, 1), (1, 1))
    batched, deficient = window_products(rows, Z, s, cfg, pairs, regressed=2)
    assert deficient == 0
    expected = oracle_products(rows, Z, s, cfg, pairs, regressed=2)
    assert np.allclose(batched, expected, atol=1e-10)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(4, 40),
       windows=st.integers(1, 6), extra=st.integers(0, 3),
       p=st.sampled_from([0, 1, 2]),
       method=st.sampled_from(["polynomial", "moving_average"]),
       poly_order=st.integers(0, 2), with_intercept=st.booleans(),
       deficient=st.sampled_from([None, "duplicate", "constant"]))
def test_kernel_matches_single_window_oracle(seed, s, windows, extra, p,
                                             method, poly_order,
                                             with_intercept, deficient):
    rng = np.random.default_rng(seed)
    T = s * windows + extra
    rows = rng.standard_normal((4, T)) * rng.uniform(0.1, 10.0)
    Z = rng.standard_normal((T, p)) if p else None
    if p and deficient == "duplicate":
        Z[:, -1] = 2.0 * Z[:, 0]
    elif p and deficient == "constant":
        Z[:, -1] = 0.7
    cfg = DetrendConfig(method=method, poly_order=min(poly_order, s - 2),
                        with_intercept=with_intercept)
    pairs = ((0, 0), (0, 1), (1, 3), (2, 3), (3, 3))
    got, bad = window_products(rows, Z, s, cfg, pairs, regressed=2)
    # a work buffer left dirty by another call changes nothing
    work = np.full(rows.size, np.nan)
    again, _ = window_products(rows, Z, s, cfg, pairs, regressed=2, work=work)
    assert np.array_equal(again, got)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        expected = oracle_products(rows, Z, s, cfg, pairs, regressed=2)
    assert np.allclose(got, expected, rtol=0, atol=1e-10)
    rank_deficient = (deficient == "duplicate" and p == 2
                      or deficient == "constant" and p and with_intercept)
    assert bad == (windows if rank_deficient else 0)


def test_kernel_plain_rows_ignore_forces():
    rng = np.random.default_rng(21)
    rows = rng.standard_normal((3, 300))
    Z = rng.standard_normal((300, 1))
    cfg = DetrendConfig()
    pairs = ((0, 0), (0, 1))
    with_forces, _ = window_products(rows, Z, 30, cfg, pairs, regressed=1)
    without, _ = window_products(rows, None, 30, cfg, pairs)
    assert np.array_equal(with_forces, without)
