import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpxa import (
    ConfigError,
    DataError,
    DetrendConfig,
    ForceMatrix,
    InvalidScaleError,
    ShapeError,
    TimeSeries,
    WindowTooSmallError,
)
from dpxa.detrend import (_SCAN_WINDOWS, _cumulate, _projection_basis,
                          window_products)
from dpxa.errors import NumericalError, RankDeficiencyWarning
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
    # a validated series is kept as it is, not copied again
    z = TimeSeries(np.array([1.0, 2.0]))
    fm = ForceMatrix([z, [3.0, 4.0]])
    assert fm.p == 2 and fm.columns[0] is z
    assert fm.columns[1].values.tolist() == [3.0, 4.0]


@pytest.mark.parametrize("columns, error, match", [
    ([], ShapeError, "needs at least one column"),
    ([[1.0, 2.0], [3.0]], ShapeError, r"differ in length: \[1, 2\]"),
    ([[1.0, 2.0, 3.0], [3.0, 4.0, np.nan]], DataError,
     r"^non-finite value nan at element 3 \(1-based\)$"),
], ids=["no-column", "unequal", "non-finite"])
def test_force_matrix_refuses(columns, error, match):
    with pytest.raises(error, match=match):
        ForceMatrix(columns)


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
    rank_deficient = (deficient == "duplicate" and p >= 2
                      or deficient == "constant" and p and with_intercept)
    # a rank-deficient design warns once per call, with its window count
    with (pytest.warns(RankDeficiencyWarning, match=f" {windows} of ")
          if rank_deficient else nullcontext()):
        covs = kernel(rows, Z, (s,), cfg, pairs, regressed=2)
    got = covs.f2
    # the buffer left dirty by a larger size changes nothing; a window as
    # long as the series takes the first column
    with (pytest.warns(RankDeficiencyWarning, match=f" {windows + 1} of ")
          if rank_deficient else nullcontext()):
        both = kernel(rows, Z, (T, s), cfg, pairs, regressed=2)
    assert both.windows.tolist() == [1, windows]
    _, again = np.split(both.f2, np.cumsum(both.windows)[:-1], axis=1)
    assert np.array_equal(again, got)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        expected = oracle_products(rows, Z, s, cfg, pairs, regressed=2)
    assert np.allclose(got, expected, rtol=0, atol=1e-10)
    assert covs.deficient.tolist() == [windows if rank_deficient else 0]
    assert both.deficient.tolist() == [int(rank_deficient)] + \
        covs.deficient.tolist()


@pytest.mark.parametrize("with_intercept", [True, False],
                         ids=["intercept", "nocept"])
@pytest.mark.parametrize("s", [2, 3, 41, 257, 1000])
def test_moving_average_matches_oracle_beyond_the_drawn_sizes(s,
                                                             with_intercept):
    # the sizes the Hypothesis test does not draw, with one force where the
    # window fits it; the error is normalised by sqrt(F2_ii F2_jj), the
    # first three pairs, so that cross pairs near zero are judged on the
    # scale of their rows
    rng = np.random.default_rng(s)
    T = 3 * s + 1
    rows = rng.standard_normal((3, T)) + np.array([[2.0], [0.0], [-1.0]])
    fits = s > 1 + with_intercept
    Z = rng.standard_normal((T, 1)) if fits else None
    cfg = DetrendConfig(method="moving_average",
                        with_intercept=with_intercept)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))
    got = kernel(rows, Z, (s,), cfg, pairs, regressed=2).f2
    want = oracle_products(rows, Z, s, cfg, pairs, regressed=2)
    scale = np.sqrt([want[i] * want[j] for i, j in pairs])
    assert np.max(np.abs(got - want) / scale) <= 1e-12


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


# stacks of r M windows of s points on both sides of _SCAN_WINDOWS: column
# adds from 1,000 windows (at s = 48 and 153 of N = 2^16, and 1,000 x 4),
# np.cumsum below (the 50-window stacks, s = 226 and 333, and 999 x 4)
@pytest.mark.parametrize("shape", [
    (3, 50, 2), (3, 50, 10), (3, 50, 31), (3, 50, 32),
    *[(3, 2 ** 16 // s, s) for s in (48, 153, 226, 333)],
    (1, 1000, 4), (1, 999, 4)],
    ids=["2", "10", "31", "32", "48", "153", "226", "333", "1000x4",
         "999x4"])
def test_short_window_scan_equals_cumsum_bitwise(shape, monkeypatch):
    A = np.random.default_rng(shape[-1]).standard_normal(shape) * 1e3
    expected = np.cumsum(A, axis=2)
    scans, cumsum = [], np.cumsum
    monkeypatch.setattr(np, "cumsum",
                        lambda *a, **kw: scans.append(1) or cumsum(*a, **kw))
    _cumulate(A)
    monkeypatch.undo()
    # the column adds run where the rule asks, and add as np.cumsum does
    assert bool(scans) == (shape[0] * shape[1] < _SCAN_WINDOWS)
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
    shared = window_products(stack, grid.scales, cfg, pairs,
                             tuple(range(2, 2 + p)))
    # the same stack with the forces as separate copies no pair names
    copies = stack + tuple(row.copy() for row in z)
    m = len(copies)
    unshared = window_products(
        copies, grid.scales, cfg,
        [(i + m - k if i >= k else i, j + m - k if j >= k else j)
         for i, j in pairs], tuple(range(k, m)))
    assert shared.f2.tobytes() == unshared.f2.tobytes()


@pytest.mark.parametrize("cfg, offset", [
    (DetrendConfig(), 2.0), (DetrendConfig(with_intercept=False), 0.0),
    (DetrendConfig(), 1e4), (DetrendConfig(), 1e8)],
    ids=["intercept", "nocept", "intercept-1e4", "intercept-1e8"])
@pytest.mark.parametrize("repeated", [False, True], ids=["gs", "repeated"])
def test_residual_the_forces_explain_is_zero(cfg, offset, repeated):
    # x on its own force leaves rounding, whose profile would pass for a
    # signal: it is zeroed, also with the force repeated, where the copy is
    # left out of every window, while a residual of 1e-6 of y survives,
    # also under an offset of 1e8, whose ulp is 1.5e-8
    rng = np.random.default_rng(21)
    z = rng.standard_normal(600)
    x = 3.0 * z + offset
    y = x + 1e-6 * rng.standard_normal(600)
    forces = (z, z.copy()) if repeated else (z,)
    k = 2 + len(forces)
    with (pytest.warns(RankDeficiencyWarning, match=" 70 of 70 windows")
          if repeated else nullcontext()):
        covs = window_products([x, y, *forces], (10, 60), cfg,
                               ((k, k), (k + 1, k + 1)), tuple(range(2, k)))
    assert covs.deficient.tolist() == ([60, 10] if repeated else [0, 0])
    assert not covs.f2[0].any()
    assert (covs.f2[1] > 0).all()


@pytest.mark.parametrize("cfg", [
    DetrendConfig(), DetrendConfig(method="moving_average"),
    DetrendConfig(with_intercept=False)], ids=["p1", "ma", "nocept"])
def test_repeated_force_is_left_out(cfg):
    # an exact copy of the force is a combination of the force before it
    # in every window: it is left out, every window counts as deficient,
    # and the products are those of the force alone
    rng = np.random.default_rng(22)
    z, rx, ry = rng.standard_normal((3, 900))
    rows = [2.0 + 3.0 * z + rx, 1.0 - z + ry, z]
    pairs = ((3, 3), (3, 4), (4, 4))
    sizes = (10, 90, 300)
    once = window_products(rows, sizes, cfg, pairs, (2,))
    with pytest.warns(RankDeficiencyWarning, match=" 103 of 103 windows"):
        twice = window_products(rows + [z.copy()], sizes, cfg,
                                [(i + 1, j + 1) for i, j in pairs], (2, 3))
    assert twice.deficient.tolist() == twice.windows.tolist()
    assert not once.deficient.any()
    xx, yy = once.f2[0], once.f2[2]
    scale = np.stack([xx, np.sqrt(xx * yy), yy])
    assert (np.abs(twice.f2 - once.f2) / scale).max() <= 1e-12


@pytest.mark.parametrize("with_intercept", [True, False],
                         ids=["1-intercept", "1-nocept"])
def test_slopes_match_window_ols(with_intercept):
    # the force slopes of each named series, in the order named, against
    # a least-squares solve per window. Series 1 is named by no pair, and
    # the force is offset
    rng = np.random.default_rng(41)
    T = 700
    rows = rng.standard_normal((2, T)) * [[1.0], [30.0]] + [[0.0], [4.0]]
    z = 2.0 + rng.standard_normal(T)
    cfg = DetrendConfig(with_intercept=with_intercept)
    sizes = (10, 35, 700)
    covs = window_products([*rows, z], sizes, cfg, ((0, 0),), (2,),
                           slopes=(1, 0))
    assert covs.slopes.shape == (2, covs.windows.sum())
    assert not covs.deficient.any()
    got = np.split(covs.slopes, np.cumsum(covs.windows)[:-1], axis=1)
    for s, slopes in zip(sizes, got):
        for v in range(T // s):
            sl = slice(v * s, (v + 1) * s)
            for n, i in enumerate((1, 0)):
                beta, _ = window_ols(rows[i, sl], z[sl], with_intercept)
                want = beta[-1]
                err = abs(slopes[n, v] - want) / (1.0 + abs(want))
                assert err <= 1e-12, (s, v, i)


@pytest.mark.parametrize("forces", [(), (1, 2)], ids=["none", "two"])
def test_slopes_need_exactly_one_force(forces):
    rows = np.random.default_rng(23).standard_normal((3, 200))
    with pytest.raises(ConfigError, match="slopes need exactly one force, "
                                          f"got {len(forces)}$"):
        window_products(rows, (10,), DetrendConfig(), ((0, 0),), forces,
                        slopes=(0,))


@pytest.mark.parametrize("a", [1e-3, 1e-5, 1e-8])
def test_force_under_a_large_offset_is_kept(a):
    # z = 1e8 + a n varies by a in every window: 670 ulps of 1e8 at
    # a = 1e-5, far above the rounding of the offset, so the force is kept
    # in every window. Storing 1e8 + a n rounds each point by up to u =
    # 2^-27, and the window mean, taken in double, errs by up to about 4u;
    # the intercept absorbs that constant shift to first order, so the
    # products move by its square: 2 (4u / a)^2 for the residual's
    # relative error, twice that for a window whose force moment is half
    # its expectation, and three times that again for the profile gains of
    # the force and residual differing, about 200 (u / a)^2. At a = 1e-8
    # the force's rms is under 4 eps 1e8, the rounding of the offset, and
    # it is left out of every window. Either way a force no pair names
    # gives what z named plain, as in the sweep, gives
    rng = np.random.default_rng(7)
    n, s = 4000, 40
    z = 1e8 + a * rng.standard_normal(n)
    r = rng.standard_normal((2, n))
    rows = np.stack([3.0 * z + r[0], -2.0 * z + r[1]])
    pairs = ((0, 0), (0, 1), (1, 1))
    residuals = [(i + 3, j + 3) for i, j in pairs]
    left_out = a < 4 * np.finfo(float).eps * 1e8
    with (pytest.warns(RankDeficiencyWarning, match=" 100 of 100 windows")
          if left_out else nullcontext()) as caught:
        covs, sweep = (window_products([*rows, z], (s,), DetrendConfig(),
                                       residuals + named, (2,), slopes=(0, 1))
                       for named in ([], [(2, 2)]))
    assert not left_out or len(caught) == 2
    assert covs.deficient.tolist() == sweep.deficient.tolist()
    assert covs.f2.tobytes() == sweep.f2[:3].tobytes()
    assert covs.slopes.tobytes() == sweep.slopes.tobytes()
    if left_out:
        # the residuals are the centred series, their slopes 0
        assert covs.deficient.tolist() == [n // s]
        assert not covs.slopes.any()
        plain = window_products([*rows, z], (s,), DetrendConfig(), pairs)
        assert covs.f2.tobytes() == plain.f2.tobytes()
        return
    want, own = longdouble_products(rows, s, 1, pairs, forces=z[None])
    scale = np.sqrt(np.stack([own[i] * own[j] for i, j in pairs]))
    err = (np.abs(covs.f2 - want) / scale).astype(float)
    assert covs.deficient.tolist() == [0]
    assert float(err.max()) <= 200 * (2.0 ** -27 / a) ** 2


def test_trend_ruled_windows_are_pair_local():
    # z = 1e8 + 1e-8 n is quantised to the ulps of 1e8, so its profile is
    # ruled by a linear trend in some windows of 40 points. Those windows
    # are detrended explicitly for a pair with z in it, not for the pair
    # (x|z, y|z): its products are the same whether or not z is named
    rng = np.random.default_rng(7)
    n, s = 4000, 40
    z = 1e8 + 1e-8 * rng.standard_normal(n)
    r = rng.standard_normal((2, n))
    rows = [3.0 * z + r[0], -2.0 * z + r[1], z]
    with pytest.warns(RankDeficiencyWarning) as caught:
        alone, beside = (window_products(rows, (s,), DetrendConfig(), pairs,
                                         (2,))
                         for pairs in ([(3, 4)], [(3, 4), (2, 2)]))
    assert len(caught) == 2
    W = z.reshape(n // s, s)
    P = np.cumsum(W - W.mean(axis=1, keepdims=True), axis=1)
    c = P @ _projection_basis(s, 1)
    norms = np.einsum("ms,ms->m", P, P)
    assert np.any(norms > 100 * (norms - np.einsum("md,md->m", c, c)))
    assert alone.f2[0].tobytes() == beside.f2[0].tobytes()


@pytest.mark.parametrize("constant", [0, 60, 75, 300])
def test_least_squares_runs_only_in_failed_windows(constant):
    # a force constant on its first points is left out of the size-30
    # windows it covers whole, not of one where it varies on half; those
    # windows and no others are rank deficient
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3, 300))
    rows[2, :constant] = 0.7
    with (pytest.warns(RankDeficiencyWarning,
                       match=f" {constant // 30} of 10 windows")
          if constant >= 30 else nullcontext()):
        covs = window_products(rows, (30,), DetrendConfig(), ((3, 4),), (2,))
    assert covs.deficient.tolist() == [constant // 30]


@pytest.mark.parametrize("sin2", [4e-6, 2.5e-7, 1e-10, 1e-16])
def test_collinearity_guard_boundary(sin2):
    # in each window of 40 points the centred second force lies at
    # sin^2 = sin2 from the centred first. Gram-Schmidt keeps both forces
    # down to sin^2 = 1e-16 and loses about eps / sin of the products,
    # the conditioning of the regression; the bound allows 100 times that
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
    pairs = ((0, 1), (0, 0), (1, 1))
    want, own = longdouble_products(rows, s, 1, pairs, forces=Z.T)
    covs = kernel(rows, Z, (s,), DetrendConfig(), pairs, regressed=2)
    scale = np.sqrt(np.stack([own[i] * own[j] for i, j in pairs]))
    err = (np.abs(covs.f2 - want) / scale).astype(float)
    assert covs.deficient.tolist() == [0]
    assert float(err.max()) <= 100 * np.finfo(float).eps / np.sqrt(sin2)


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
    # it holds on a loaded host: one call on the stack (rx, ry, z, x, y)
    # that regresses x and y at N = 2^12 with the default grid made 2,109 Python-level, 870
    # C-level and 321 ufunc calls with numpy 2.4.6; the bounds allow 23%, 26%
    # and 31% more, so numpy dispatch around the window arithmetic cannot
    # creep back unseen
    import sys

    import dpxa.detrend
    from dpxa import ScaleGrid

    rng = np.random.default_rng(12)
    rx, ry, z = rng.standard_normal((3, 2 ** 12))
    rows = [rx, ry, z, 2.0 + 3.0 * z + rx, 2.0 + 3.0 * z + ry]
    # the pairs of (rx, ry, z), (x|z, y|z) with force z
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2), (8, 9))
    sizes = ScaleGrid.default(2 ** 12).scales
    cfg = DetrendConfig()
    want = window_products(rows, sizes, cfg, pairs, (2,))  # caches
    counts = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        covs = window_products(rows, sizes, cfg, pairs, (2,))
    finally:
        sys.setprofile(previous)
    # the counter's own frames would count as Python calls: a second run
    ufuncs = _UfuncCounter()
    monkeypatch.setattr(dpxa.detrend, "np", ufuncs)
    again = window_products(rows, sizes, cfg, pairs, (2,))
    monkeypatch.undo()
    assert covs.deficient.sum() == 0
    assert covs.f2.tobytes() == again.f2.tobytes() == want.f2.tobytes()
    assert counts["call"] <= 2600 and counts["c_call"] <= 1100, counts
    assert ufuncs.calls <= 420


@pytest.mark.parametrize("factor, what", [
    (1e160, "overflow"), (1e-160, "underflow"), (1e-300, "underflow"),
    (1e-310, "underflow")])
@pytest.mark.parametrize("method", ["polynomial", "moving_average"])
def test_kernel_refuses_products_beyond_float64(method, factor, what):
    # a direct call checks its products as the estimators' calls do; a
    # nonzero profile whose squares all flush to exact zeros has
    # underflowed too, and is not an exactly degenerate window
    x = np.random.default_rng(0).standard_normal(4096)
    with pytest.raises(NumericalError, match=f"^window products {what} "
                       "float64 at scale 10$") as caught:
        window_products((factor * x,), (10, 100),
                        DetrendConfig(method=method), ((0, 0),))
    assert caught.value.exit_code == 5


def test_kernel_refuses_a_size_with_no_whole_window():
    x = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(InvalidScaleError, match="scale 200 exceeds the "
                       "series length 100") as caught:
        window_products((x,), (10, 200), DetrendConfig(), ((0, 0),))
    assert caught.value.exit_code == 4
    # a window as long as the series is whole
    assert window_products((x,), (10, 100), DetrendConfig(),
                           ((0, 0),)).windows.tolist() == [10, 1]


def test_rank_deficiency_warns_once_per_call_at_the_estimators_caller():
    # the repeated force is left out of every window of every size: one
    # warning for the call, naming the windows of all sizes together, and
    # an estimator's warning points at the estimator's caller
    from dpxa import QGrid, ScaleGrid
    from dpxa.fluctuation import fluctuation_dpxa, rho_curve

    rng = np.random.default_rng(22)
    z, x, y = rng.standard_normal((3, 900))
    with pytest.warns(RankDeficiencyWarning,
                      match="^rank-deficient design in 103 of 103 "
                            "windows;") as caught:
        window_products([x, z, z.copy()], (10, 90, 300), DetrendConfig(),
                        ((3, 3),), (1, 2))
    assert len(caught) == 1
    forces = ForceMatrix([z, z.copy()])
    grid = ScaleGrid([10, 90, 225])
    for estimate in (lambda: fluctuation_dpxa(x, y, forces, grid,
                                              QGrid.second_order()),
                     lambda: rho_curve(x, y, forces, grid)):
        with pytest.warns(RankDeficiencyWarning, match=" 104 of 104 ") \
                as caught:
            estimate()
        assert [w.filename for w in caught] == [__file__]
