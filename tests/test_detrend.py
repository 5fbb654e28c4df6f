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
from dpxa.detrend import _cumulate, _projection_basis, window_products
from dpxa.errors import RankDeficiencyWarning
from oracle import (longdouble_products, local_trend, oracle_products, profile,
                    window_ols)


def kernel(rows, Z, sizes, cfg, pairs, regressed=0):
    """``window_products`` on the oracle's stack: the rows, of which the
    last ``regressed`` are regressed on the (T, p) force columns Z. The
    kernel's stack puts the force columns after the rows and names the
    residual of row i as k + i."""
    if Z is None or not regressed:
        return window_products(rows, sizes, cfg, pairs)
    n, p = len(rows), Z.shape[1]
    k = n + p
    name = [i + k if i >= n - regressed else i for i in range(n)]
    return window_products(np.vstack([rows, Z.T]), sizes, cfg,
                           [(name[i], name[j]) for i, j in pairs],
                           tuple(range(n, k)))


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
    with pytest.raises(ShapeError):
        ForceMatrix(np.empty((5, 0)))
    with pytest.raises(ShapeError):
        ForceMatrix.from_series([[1.0, 2.0], [3.0]])


def test_projection_basis_is_cached_read_only():
    _projection_basis.cache_clear()
    Q = _projection_basis(50, 2)
    assert _projection_basis(50, 2) is Q and not Q.flags.writeable
    assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_batched_engine_matches_single_window_ops(seed):
    rng = np.random.default_rng(seed)
    T, s = 240, 24
    rows = rng.standard_normal((2, T))
    Z = rng.standard_normal((T, 2))
    cfg = DetrendConfig(poly_order=1)
    pairs = ((0, 0), (0, 1), (1, 1))
    covs = kernel(rows, Z, (s,), cfg, pairs, regressed=2)
    assert covs.windows.tolist() == [T // s]
    assert covs.deficient.tolist() == [0]
    expected = oracle_products(rows, Z, s, cfg, pairs, regressed=2)
    assert np.allclose(covs.f2, expected, atol=1e-10)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(4, 40),
       windows=st.integers(1, 6), extra=st.integers(0, 3),
       p=st.sampled_from([0, 1, 2, 3]),
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
    if p + with_intercept >= s:
        with pytest.raises(WindowTooSmallError):
            kernel(rows, Z, (s,), cfg, pairs, regressed=2)
        return
    covs = kernel(rows, Z, (s,), cfg, pairs, regressed=2)
    got = covs.f2
    # the buffer left dirty by a larger size changes nothing; a window as
    # long as the series takes the first column
    both = kernel(rows, Z, (T, s), cfg, pairs, regressed=2)
    assert both.windows.tolist() == [1, windows]
    _, again = np.split(both.f2, np.cumsum(both.windows)[:-1], axis=1)
    assert np.array_equal(again, got)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        expected = oracle_products(rows, Z, s, cfg, pairs, regressed=2)
    assert np.allclose(got, expected, rtol=0, atol=1e-10)
    rank_deficient = (deficient == "duplicate" and p >= 2
                      or deficient == "constant" and p and with_intercept)
    assert covs.deficient.tolist() == [windows if rank_deficient else 0]
    assert both.deficient.tolist() == [int(rank_deficient)] + \
        covs.deficient.tolist()


def test_kernel_plain_rows_ignore_forces():
    rng = np.random.default_rng(21)
    rows = rng.standard_normal((3, 300))
    Z = rng.standard_normal((300, 1))
    cfg = DetrendConfig()
    pairs = ((0, 0), (0, 1))
    # the residual of row 2 is built beside the plain rows
    with_forces = window_products(np.vstack([rows, Z.T]), (30,), cfg,
                                  pairs + ((6, 6),), (3,)).f2
    without = window_products(rows, (30,), cfg, pairs).f2
    assert np.array_equal(with_forces[:2], without)


def _accuracy_rows(n):
    from dpxa import BinomialSpec, FgnSpec, gen_binomial, gen_fgn

    fgn = [gen_fgn(FgnSpec(h, n, seed)).values
           for h, seed in ((0.1, 1), (0.95, 2), (0.5, 3))]
    return np.stack([
        fgn[0] + 2.0,
        fgn[1] + 2.0,
        gen_binomial(BinomialSpec(0.3, 16)).values,
        fgn[2] + 1e8,
        # a trend that DFA-2 removes carries almost all of the profiles of
        # the largest windows
        fgn[2] + 1e-4 * np.arange(n),
    ])


@pytest.mark.parametrize("order", [1, 2])
def test_projection_products_match_extended_precision(order):
    # error normalised by sqrt(F2_ii F2_jj), so that cross pairs near zero
    # are judged on the scale of their rows
    rows = _accuracy_rows(2 ** 16)
    k = rows.shape[0]
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    sizes = (10, 104, 1000, 16384)
    covs = window_products(rows, sizes, DetrendConfig(poly_order=order),
                           pairs)
    for s, got in zip(sizes, np.split(covs.f2, np.cumsum(covs.windows)[:-1],
                                      axis=1)):
        want, own = longdouble_products(rows, s, order, pairs)
        scale = np.sqrt(np.stack([own[i] * own[j] for i, j in pairs]))
        err = (np.abs(got - want) / scale).astype(float)
        assert float(err.max()) <= 1e-12, (s, pairs[int(err.max(1).argmax())])


@pytest.mark.parametrize("p", [1, 2])
def test_force_regression_matches_extended_precision(p):
    # DPXA pairs of x = 2 + z B_x + r_x and y = 2 + z B_y + r_y against
    # the regression solved in long double, normalised as above
    from dpxa import FgnSpec, gen_fgn

    n = 2 ** 14
    r = [gen_fgn(FgnSpec(h, n, seed)).values
         for h, seed in ((0.3, 31), (0.7, 32))]
    Z = np.stack([gen_fgn(FgnSpec(0.9, n, 33 + f)).values for f in range(p)])
    rows = np.stack([2.0 + np.array([3.0, -1.5])[:p] @ Z + r[0],
                     2.0 + np.array([1.0, 2.5])[:p] @ Z + r[1]])
    pairs = [(0, 1), (0, 0), (1, 1)]
    sizes = (10, 104, 1000, 4096)
    covs = kernel(rows, Z.T, sizes, DetrendConfig(), pairs, regressed=2)
    for s, got in zip(sizes, np.split(covs.f2, np.cumsum(covs.windows)[:-1],
                                      axis=1)):
        want, own = longdouble_products(rows, s, 1, pairs, forces=Z)
        scale = np.sqrt(np.stack([own[i] * own[j] for i, j in pairs]))
        err = (np.abs(got - want) / scale).astype(float)
        assert float(err.max()) <= 1e-12, (s, pairs[int(err.max(1).argmax())])


@pytest.mark.parametrize("s", [2, 10, 31, 32])
def test_short_window_scan_equals_cumsum_bitwise(s):
    A = np.random.default_rng(s).standard_normal((3, 50, s)) * 1e3
    expected = np.cumsum(A, axis=2)
    _cumulate(A)
    assert A.tobytes() == expected.tobytes()


@pytest.mark.parametrize("cfg", [
    DetrendConfig(), DetrendConfig(poly_order=2),
    DetrendConfig(method="moving_average"),
    DetrendConfig(with_intercept=False)], ids=["p1", "p2", "ma", "nocept"])
@pytest.mark.parametrize("p, lent", [(1, 1), (2, 2), (2, 1)],
                         ids=["1", "2", "2-one-plain"])
def test_force_matching_a_row_matches_unshared_bitwise(cfg, p, lent):
    # the sweep's stack names z plain beside x|z and y|z: the regression
    # takes the plain z rows' centred windows instead of centring z again,
    # for each of the first ``lent`` forces; the others are centred apart
    from dpxa import ScaleGrid, TimeSeries
    from dpxa.fluctuation import window_covariances

    rng = np.random.default_rng(15)
    n = 3000
    z = rng.standard_normal((p, n))
    r = rng.standard_normal((2, n))
    x = TimeSeries(5.0 + 2.0 * z.sum(axis=0) + r[0])
    y = TimeSeries(-1.0 + z[0] + r[1])
    grid = ScaleGrid.default(n)
    stack = (r[0], r[1], *z, x, y)
    k = len(stack)
    # every row plain but the forces past the lent ones, and x|z and y|z
    named = [i for i in range(k) if not 2 + lent <= i < 2 + p] \
        + [2 * k - 2, 2 * k - 1]
    pairs = [(i, j) for a, i in enumerate(named) for j in named[a:]]
    shared = window_covariances(stack, grid, cfg, pairs,
                                tuple(range(2, 2 + p)))
    # the same stack with the forces as separate copies no pair names
    copies = stack + tuple(row.copy() for row in z)
    m = len(copies)
    unshared = window_covariances(
        copies, grid, cfg,
        [(i + m - k if i >= k else i, j + m - k if j >= k else j)
         for i, j in pairs], tuple(range(k, m)))
    assert shared.f2.tobytes() == unshared.f2.tobytes()


@pytest.mark.parametrize("cfg", [
    DetrendConfig(), DetrendConfig(with_intercept=False)],
    ids=["intercept", "nocept"])
@pytest.mark.parametrize("repeated", [False, True], ids=["gs", "lstsq"])
def test_residual_the_forces_explain_is_zero(cfg, repeated):
    # x on its own force leaves rounding, whose profile would pass for a
    # signal: it is zeroed in the Gram-Schmidt windows and, with the force
    # repeated, in the lstsq ones, while a residual of 1e-6 of y survives
    rng = np.random.default_rng(21)
    z = rng.standard_normal(600)
    x = 3.0 * z + (2.0 if cfg.with_intercept else 0.0)
    y = x + 1e-6 * rng.standard_normal(600)
    forces = (z, z.copy()) if repeated else (z,)
    k = 2 + len(forces)
    covs = window_products([x, y, *forces], (10, 60), cfg,
                           ((k, k), (k + 1, k + 1)), tuple(range(2, k)))
    assert covs.deficient.tolist() == ([60, 10] if repeated else [0, 0])
    assert not covs.f2[0].any()
    assert (covs.f2[1] > 0).all()


@pytest.mark.parametrize("constant", [0, 60, 75, 300])
def test_least_squares_runs_only_in_failed_windows(monkeypatch, constant):
    # a force constant on its first points fails the guard in the size-30
    # windows it covers whole, not in one where it varies on half; the
    # lstsq fallback runs once in each failed window and nowhere else
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3, 300))
    rows[2, :constant] = 0.7
    solved = []

    def spy(*args, **kwargs):
        solved.append(args[0].shape)
        return lstsq(*args, **kwargs)

    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", spy)
    covs = window_products(rows, (30,), DetrendConfig(), ((3, 4),), (2,))
    assert solved == [(30, 2)] * (constant // 30)
    assert covs.deficient.tolist() == [constant // 30]


@pytest.mark.parametrize("sin2, solves", [(4e-6, 0), (2.5e-7, 6)])
def test_collinearity_guard_boundary(monkeypatch, sin2, solves):
    # in each window of 40 points the centred second force lies at
    # sin^2 = sin2 from the centred first, on either side of the guard's
    # 1e-6: below it the window takes the lstsq fallback, which still finds
    # both columns
    rng = np.random.default_rng(40)
    s, M = 40, 6
    u, w = np.empty((2, M, s)), rng.standard_normal((2, M, s))
    for m in range(M):
        a, b = w[:, m] - w[:, m].mean(axis=1, keepdims=True)
        for _ in range(2):
            b = b - (a @ b) / (a @ a) * a
        u[:, m] = a / np.linalg.norm(a), b / np.linalg.norm(b)
    z1 = u[0]
    z2 = np.sqrt(1.0 - sin2) * u[0] + np.sqrt(sin2) * u[1]
    Z = np.column_stack([z1.ravel(), z2.ravel()])
    rows = np.stack([3.0 * Z[:, 0] - Z[:, 1], Z[:, 1]]) \
        + rng.standard_normal((2, M * s))
    cfg = DetrendConfig()
    pairs = ((0, 1), (0, 0), (1, 1))
    expected = oracle_products(rows, Z, s, cfg, pairs, regressed=2)
    solved = []

    def spy(*args, **kwargs):
        solved.append(args[0].shape)
        return lstsq(*args, **kwargs)

    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", spy)
    covs = kernel(rows, Z, (s,), cfg, pairs, regressed=2)
    assert solved == [(s, 3)] * solves
    assert covs.deficient.tolist() == [0]
    assert np.allclose(covs.f2, expected, rtol=0, atol=1e-10)


class _UfuncCounter:
    """Stands in for numpy in a module under test and counts the calls made
    through numpy's ufunc objects, their methods (reduce, reduceat, ...)
    included, which ``sys.setprofile`` does not see; every other attribute
    is numpy's own."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        return self._Counted(self, attr) if isinstance(attr, np.ufunc) \
            else attr

    class _Counted:
        def __init__(self, counter, ufunc):
            self._counter, self._ufunc = counter, ufunc

        def __call__(self, *args, **kwargs):
            self._counter.calls += 1
            return self._ufunc(*args, **kwargs)

        def __getattr__(self, name):
            method = getattr(self._ufunc, name)
            if not callable(method):
                return method

            def call(*args, **kwargs):
                self._counter.calls += 1
                return method(*args, **kwargs)
            return call


def test_window_products_call_budget(monkeypatch):
    # a count of interpreter, C-function and ufunc calls, not a timing, so
    # it holds on a loaded host: one call on a sweep stack (rx, ry, z, x, y)
    # at N = 2^12 with the default grid made 2,109 Python-level, 850
    # C-level and 321 ufunc calls with numpy 2.4; the bounds allow 23%, 29%
    # and 31% more, so numpy dispatch around the window arithmetic cannot
    # creep back unseen
    import sys

    import dpxa.detrend
    from dpxa import ScaleGrid
    from dpxa.experiments import _SWEEP_PAIRS

    rng = np.random.default_rng(12)
    rx, ry, z = rng.standard_normal((3, 2 ** 12))
    rows = [rx, ry, z, 2.0 + 3.0 * z + rx, 2.0 + 3.0 * z + ry]
    sizes = ScaleGrid.default(2 ** 12).scales
    cfg = DetrendConfig()
    want = window_products(rows, sizes, cfg, _SWEEP_PAIRS, (2,))  # caches
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        covs = window_products(rows, sizes, cfg, _SWEEP_PAIRS, (2,))
    finally:
        sys.setprofile(previous)
    # the counter's own frames would count as Python calls: a second run
    ufuncs = _UfuncCounter()
    monkeypatch.setattr(dpxa.detrend, "np", ufuncs)
    again = window_products(rows, sizes, cfg, _SWEEP_PAIRS, (2,))
    monkeypatch.undo()
    assert covs.deficient.sum() == 0
    assert covs.f2.tobytes() == again.f2.tobytes() == want.f2.tobytes()
    assert counts["call"] <= 2600 and counts["c_call"] <= 1100, counts
    assert ufuncs.calls <= 420
