import numpy as np
import pytest

from dpxa import (
    DegenerateInputError,
    DetrendConfig,
    ForceMatrix,
    InvalidScaleError,
    QGrid,
    ScaleGrid,
    ShapeError,
    fluctuation_dcca,
    fluctuation_dfa,
    fluctuation_dpxa,
    rho_curve,
    rho_dcca,
)
from dpxa.detrend import window_products
from oracle import contaminate, oracle_products, window_cov


def test_window_cov_examples():
    assert window_cov([1.0, -1.0], [1.0, -1.0]) == pytest.approx(1.0)
    assert window_cov([1.0, -1.0], [-1.0, 1.0]) == pytest.approx(-1.0)
    assert window_cov([1, 2, 3], [2, 4, 6]) == pytest.approx(28 / 3)
    with pytest.raises(ShapeError):
        window_cov([1.0], [1.0, 2.0])


@pytest.mark.parametrize("seed", range(10))
def test_reduction_identities(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(300, 2500))
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    grid = ScaleGrid.default(n)
    orders = QGrid.default()

    dpxa_none = fluctuation_dpxa(x, y, None, grid, orders)
    dcca = fluctuation_dcca(x, y, grid, orders)
    assert np.max(np.abs(dpxa_none.F - dcca.F) / dcca.F) <= 1e-12

    dcca_xx = fluctuation_dcca(x, x, grid, orders)
    dfa = fluctuation_dfa(x, grid, orders)
    assert np.max(np.abs(dcca_xx.F - dfa.F) / dfa.F) <= 1e-12


def dfa_oracle(series, scales):
    """Textbook DFA: global mean-centered profile, per-window linear fit."""
    prof = np.cumsum(series - series.mean())
    out = []
    for s in scales:
        M = prof.size // s
        windows = prof[: M * s].reshape(M, s)
        t = np.arange(s)
        f2 = [np.mean((w - np.polyval(np.polyfit(t, w, 1), t)) ** 2)
              for w in windows]
        out.append(np.sqrt(np.mean(f2)))
    return np.array(out)


def test_dfa_matches_textbook_oracle():
    rng = np.random.default_rng(4)
    x = np.cumsum(rng.standard_normal(6000)) * 0.01 + rng.standard_normal(6000)
    grid = ScaleGrid.default(6000)
    ours = fluctuation_dfa(x, grid, QGrid.second_order()).F[0]
    oracle = dfa_oracle(x, grid.scales)
    assert np.allclose(ours, oracle, rtol=1e-8)


def test_signed_cov2_matches_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3000)
    y = 0.5 * x + rng.standard_normal(3000)
    grid = ScaleGrid(np.array([20, 50, 120]))
    surface = fluctuation_dcca(x, y, grid, QGrid.second_order())

    def profiles(series, s):
        prof = np.cumsum(series - series.mean())
        M = prof.size // s
        w = prof[: M * s].reshape(M, s)
        t = np.arange(s)
        return np.stack([row - np.polyval(np.polyfit(t, row, 1), t)
                         for row in w])

    for j, s in enumerate(grid.scales):
        dx, dy = profiles(x, int(s)), profiles(y, int(s))
        assert surface.cov2[j] == pytest.approx(float(np.mean(dx * dy)),
                                                rel=1e-8)


def test_q2_column_equals_window_cov_aggregation():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    grid = ScaleGrid(np.array([25, 60, 140]))
    cfg = DetrendConfig()
    surface = fluctuation_dcca(x, y, grid, QGrid.second_order(), cfg)
    for j, s in enumerate(grid.scales):
        covs = oracle_products(np.stack([x, y]), None, int(s), cfg,
                               ((0, 1),))[0]
        expected = np.sqrt(np.mean(np.abs(covs)))
        assert surface.F[0, j] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_f_nondecreasing_in_q(seed):
    rng = np.random.default_rng(100 + seed)
    n = 1600
    x = rng.standard_normal(n)
    y = rng.standard_normal(n) + 0.3 * x
    surface = fluctuation_dcca(x, y, ScaleGrid.default(n), QGrid.default())
    assert np.all(np.diff(surface.F, axis=0) >= -1e-10 * surface.F[:-1])


def test_q_zero_branch_excludes_degenerate_windows():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1200)
    x[:100] = 1.25  # first window constant at s = 100
    grid = ScaleGrid(np.array([50, 100, 300]))
    surface = fluctuation_dfa(x, grid, QGrid(np.array([-2.0, 0.0, 2.0])))
    assert surface.zero_windows[1] == 1
    assert np.isfinite(surface.F[1]).all()


def test_negative_q_averages_the_live_windows():
    # one exactly degenerate window made the negative power mean infinite
    # and F(q < 0, s) zero; like q = 0, it now skips such windows
    x = np.random.default_rng(3).standard_normal(8192)
    x[:1500] = 0.0
    grid = ScaleGrid.default(x.size)
    orders = np.array([-4.0, -1.0, 2.0])
    surface = fluctuation_dfa(x, grid, QGrid(orders))
    assert surface.zero_windows.tolist() == [1500 // s for s in grid.scales]
    covs = window_products((x,), grid.scales, DetrendConfig(), ((0, 0),))
    windows = np.split(covs.f2[0], np.cumsum(covs.windows)[:-1])
    for j, f2 in enumerate(windows):
        live = f2[f2 != 0.0]
        assert live.size == f2.size - surface.zero_windows[j]
        for i, q in enumerate(orders[:2]):
            want = np.mean(np.abs(live) ** (q / 2)) ** (1 / q)
            assert surface.F[i, j] == pytest.approx(want, rel=1e-12)
        # q > 0 still averages every window
        assert surface.F[2, j] == pytest.approx(np.sqrt(f2.mean()),
                                                rel=1e-12)


def test_degenerate_constant_series():
    with pytest.raises(DegenerateInputError):
        fluctuation_dfa(np.ones(1000), ScaleGrid.default(1000),
                        QGrid.second_order())


def test_scales_beyond_quarter_length_rejected():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(400)
    with pytest.raises(InvalidScaleError):
        fluctuation_dfa(x, ScaleGrid([10, 101]), QGrid.second_order())


def test_rho_self_and_sign():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2000)
    grid = ScaleGrid.default(2000)
    assert np.all(rho_dcca(x, x.copy(), grid).rho == 1.0)
    assert np.all(rho_dcca(x, -x, grid).rho == -1.0)


@pytest.mark.parametrize("seed", range(20))
def test_rho_bounded(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(400, 2000))
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    if seed % 3 == 0:
        x[: n // 2] = 1e-9 * rng.standard_normal(n // 2)
    if seed % 5 == 0:
        y = 0.999 * x + 1e-7 * rng.standard_normal(n)
    rho = rho_dcca(x, y, ScaleGrid.default(n)).rho
    assert np.all(np.abs(rho) <= 1.0)


def test_rho_affine_invariance():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(2000)
    y = rng.standard_normal(2000)
    grid = ScaleGrid(np.array([25, 60, 140, 400]))
    base = rho_dcca(x, y, grid).rho
    scaled = rho_dcca(3.5 * x + 11.0, y, grid).rho
    assert np.max(np.abs(base - scaled)) <= 1e-10

    z = rng.standard_normal(2000)
    forces = ForceMatrix([z])
    base = rho_curve(x, y, forces, grid).rho
    shifted = rho_curve(x + 4.0 + 2.5 * z, y, forces, grid).rho
    assert np.max(np.abs(base - shifted)) <= 1e-10


def test_rho_degenerate_denominator():
    x = np.ones(600)
    y = np.linspace(0.0, 1.0, 600)
    with pytest.raises(DegenerateInputError):
        rho_dcca(x, y, ScaleGrid([20, 50, 100]))


def test_kinds():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(900)
    y = rng.standard_normal(900)
    z = rng.standard_normal(900)
    grid = ScaleGrid.default(900)
    q = QGrid.second_order()
    assert fluctuation_dfa(x, grid, q).kind == "DFA"
    assert fluctuation_dcca(x, y, grid, q).kind == "DCCA"
    forces = ForceMatrix([z])
    assert fluctuation_dpxa(x, y, forces, grid, q).kind == "DPXA"
    assert rho_dcca(x, y, grid).kind == "DCCA"
    assert rho_curve(x, y, forces, grid).kind == "DPXA"


def test_moving_average_variant_runs():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(2000)
    cfg = DetrendConfig(method="moving_average")
    surface = fluctuation_dfa(x, ScaleGrid.default(2000),
                              QGrid.second_order(), cfg)
    assert np.all(surface.F > 0)


def test_dpxa_slope_ignores_strong_driver():
    # additive model with a persistent common force: the partial slope must
    # track the intrinsic cross exponent, not the driver's.
    # oracle: DCCA on the true residual pair.
    from dpxa import (BfbmSpec, ContaminationSpec, FgnSpec,
                      gen_bfbm_increments, gen_fgn)
    from dpxa.scaling import fit_exponent

    n = 2 ** 13
    grid = ScaleGrid.default(n)
    q2 = QGrid.second_order()
    betas = ContaminationSpec(2.0, 3.0)
    h_dpxa, h_oracle = [], []
    for seed in range(20):
        z = gen_fgn(FgnSpec(0.9, n, 300 + seed))
        rx, ry = gen_bfbm_increments(BfbmSpec(0.5, 0.5, 0.5, n, 600 + seed))
        x = contaminate(rx, z, betas)
        y = contaminate(ry, z, betas)
        forces = ForceMatrix([z])
        h_dpxa.append(fit_exponent(
            fluctuation_dpxa(x, y, forces, grid, q2)).h[0])
        h_oracle.append(fit_exponent(
            fluctuation_dcca(rx, ry, grid, q2)).h[0])
    mean_dpxa, mean_oracle = np.mean(h_dpxa), np.mean(h_oracle)
    assert abs(mean_dpxa - mean_oracle) <= 0.03
    assert abs(mean_dpxa - 0.5) <= 0.05
    assert mean_dpxa < 0.7  # nowhere near the driver's exponent


def _longdouble_dpxa_products(x, y, z, s):
    """Residual-first reference in extended precision: per window, regress
    the centred increments on the centred force, cumulate, remove the
    linear trend, average the products."""
    L = np.longdouble
    M = x.size // s
    Zc = z[: M * s].reshape(M, s).astype(L)
    Zc = Zc - Zc.mean(axis=1, keepdims=True)
    t = np.arange(s, dtype=L)
    t = t - t.mean()
    detrended = []
    for series in (x, y):
        A = series[: M * s].reshape(M, s).astype(L)
        A = A - A.mean(axis=1, keepdims=True)
        b = (A * Zc).sum(axis=1) / (Zc * Zc).sum(axis=1)
        P = np.cumsum(A - b[:, None] * Zc, axis=1)
        slope = (P * t).sum(axis=1) / (t * t).sum()
        detrended.append(P - P.mean(axis=1, keepdims=True)
                         - slope[:, None] * t)
    return (detrended[0] * detrended[1]).mean(axis=1)


def test_dpxa_on_masked_binomial_matches_extended_precision():
    # the residual is ~1e-4 of the force it is recovered from; removing
    # the force after the cumsum instead loses up to 8% here at s = 16
    from dpxa import BinomialSpec, FgnSpec, gen_binomial, gen_fgn

    depth = 14
    z = gen_fgn(FgnSpec(0.5, 2 ** depth, 3)).values
    x = 2.0 + 3.0 * z + gen_binomial(BinomialSpec(0.3, depth)).values
    y = 2.0 + 3.0 * z + gen_binomial(BinomialSpec(0.4, depth)).values
    sizes = (16, 256, 4096)
    covs = window_products((x, y, z), sizes, DetrendConfig(), ((3, 4),),
                           (2,))
    for s, f2 in zip(sizes, np.split(covs.f2, np.cumsum(covs.windows)[:-1],
                                     axis=1)):
        ref = _longdouble_dpxa_products(x, y, z, s)
        rel = np.abs(f2[0] - ref) / np.abs(ref)
        assert float(np.max(rel)) <= 2e-8, s


@pytest.mark.parametrize("offset, tol", [(1e6, 1e-7), (1e8, 1e-5)])
def test_dpxa_under_large_common_offset(offset, tol):
    from dpxa import (BfbmSpec, ContaminationSpec, FgnSpec,
                      gen_bfbm_increments, gen_fgn)

    n = 2 ** 12
    z = gen_fgn(FgnSpec(0.9, n, 5))
    rx, ry = gen_bfbm_increments(BfbmSpec(0.4, 0.6, 0.5, n, 6))
    betas = ContaminationSpec(2.0, 3.0)
    x = contaminate(rx, z, betas).values
    y = contaminate(ry, z, betas).values
    grid, orders = ScaleGrid.default(n), QGrid.default()
    base = fluctuation_dpxa(x, y, ForceMatrix([z.values]), grid,
                            orders).F
    shifted = fluctuation_dpxa(
        x + offset, y + offset, ForceMatrix([z.values + offset]),
        grid, orders).F
    assert np.max(np.abs(shifted - base) / base) <= tol


@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
def test_force_explained_residual_is_zero_under_any_offset(offset):
    # x = c + 3 z on z leaves only the rounding of x, which grows with c:
    # every window is zero whatever c is, and the estimator says so
    from dpxa import FgnSpec, gen_fgn

    z = gen_fgn(FgnSpec(0.7, 4000, 1)).values
    x = offset + 3.0 * z
    with pytest.raises(DegenerateInputError,
                       match="all 400 windows are exactly degenerate at "
                             "scale 10$"):
        fluctuation_dpxa(x, x, ForceMatrix([z]),
                         ScaleGrid.default(4000), QGrid.second_order())


@pytest.mark.parametrize("scale", [1e-3, 1e-4, 1e-5])
def test_small_residual_survives_a_large_offset(scale):
    # a residual of rms a under an offset of 1e8 is 700 ulps of 1e8 or more,
    # far above the offset's rounding: no window is zero. Storing 1e8 + r
    # rounds each point of r by up to 7.5e-9, a share 7.5e-9 / a of it, so
    # F is compared at 1e-7 / a
    from dpxa import FgnSpec, gen_fgn

    z = gen_fgn(FgnSpec(0.7, 4000, 1)).values
    r = scale * np.random.default_rng(7).standard_normal(4000)
    forces = ForceMatrix([z])
    grid, orders = ScaleGrid.default(4000), QGrid.default()
    far = fluctuation_dpxa(1e8 + 3.0 * z + r, 1e8 + 3.0 * z + r, forces,
                           grid, orders)
    near = fluctuation_dpxa(3.0 * z + r, 3.0 * z + r, forces, grid, orders)
    assert far.zero_windows.tolist() == [0] * len(grid)
    assert np.max(np.abs(far.F - near.F) / near.F) <= 1e-7 / scale


def test_rank_deficiency_warns_once_per_call():
    import re
    import warnings

    from dpxa.errors import RankDeficiencyWarning

    rng = np.random.default_rng(13)
    n = 4000
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    grid = ScaleGrid.default(n)
    forces = ForceMatrix([np.full(n, 1.5)])
    windows = sum(n // int(s) for s in grid.scales)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fluctuation_dpxa(x, y, forces, grid, QGrid.second_order())
        rho_curve(x, y, forces, grid)
    found = [w for w in caught if w.category is RankDeficiencyWarning]
    assert len(found) == 2
    for w in found:
        match = re.search(r"rank-deficient design in (\d+) of (\d+) windows",
                          str(w.message))
        assert match and int(match[1]) == int(match[2]) == windows


def test_deficient_windows_counted_per_scale():
    # z is constant on its first 1000 points: the windows that lie there
    # duplicate the intercept, 1000 // s of them at scale s
    from dpxa.errors import RankDeficiencyWarning

    rng = np.random.default_rng(13)
    n = 4000
    x, y, z = rng.standard_normal((3, n))
    z[:1000] = 1.5
    grid, q2 = ScaleGrid.default(n), QGrid.second_order()
    forces = ForceMatrix([z])
    want = [1000 // int(s) for s in grid.scales]
    with pytest.warns(RankDeficiencyWarning, match=r" 451 of 1829 windows"):
        dpxa = fluctuation_dpxa(x, y, forces, grid, q2)
    with pytest.warns(RankDeficiencyWarning, match=r" 451 of 1829 windows"):
        curve = rho_curve(x, y, forces, grid)
    assert dpxa.deficient_windows.tolist() == want
    assert curve.deficient_windows.tolist() == want
    assert sum(want) == 451
    dcca = fluctuation_dpxa(x, y, None, grid, q2)
    assert dcca.deficient_windows.tolist() == [0] * len(grid)


@pytest.mark.parametrize("cfg", [
    DetrendConfig(), DetrendConfig(poly_order=2),
    DetrendConfig(method="moving_average"),
    DetrendConfig(with_intercept=False)], ids=["p1", "p2", "ma", "nocept"])
def test_repeated_series_matches_copies_bitwise(cfg):
    # x and y are named plain and as residuals, and the force z plain:
    # every row is centred from its own series, and the force block is the
    # z rows' centred windows
    rng = np.random.default_rng(14)
    n = 3000
    grid = ScaleGrid.default(n)
    for p in (1, 2):
        z = rng.standard_normal((p, n))
        x = 5.0 + 2.0 * z.sum(axis=0) + rng.standard_normal(n)
        y = -1.0 + z[0] + rng.standard_normal(n)
        k = 2 + p
        plain = ((0, 0), (0, 1), (1, 1), (0, 2), (2, 2))
        shared = window_products(
            (x, y, *z), grid.scales, cfg,
            plain + ((k, k + 1), (k, k), (0, k + 1), (2, k)),
            tuple(range(2, k)))
        # x, y and z again as copies: the residuals of the copied x and y,
        # on the copied forces, which no pair names
        m = k + 2 + p
        copies = window_products(
            (x, y, *z, x.copy(), y.copy(), *(row.copy() for row in z)),
            grid.scales, cfg,
            plain + ((m + k, m + k + 1), (m + k, m + k), (0, m + k + 1),
                     (2, m + k)),
            tuple(range(k + 2, m)))
        assert shared.f2.tobytes() == copies.f2.tobytes()


def test_surfaces_of_several_pairs_equal_each_alone():
    from dataclasses import replace

    from dpxa.fluctuation import surface

    rng = np.random.default_rng(15)
    n = 2400
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    x[:100] = 0.5  # a degenerate window at s = 100 for q = 0
    grid = ScaleGrid(np.array([20, 50, 100, 300, 600]))
    orders = QGrid(np.array([-2.0, 0.0, 1.0, 2.0]))
    pairs = ((0, 0), (0, 1), (1, 1))
    kinds = ("DFA", "DCCA", "DFA")
    covs = window_products((x, y), grid.scales, DetrendConfig(), pairs)
    together = surface(covs, grid, orders, kinds)
    for n_, (kind, got) in enumerate(zip(kinds, together)):
        alone = surface(replace(covs, f2=covs.f2[n_:n_ + 1]), grid, orders,
                        (kind,))[0]
        assert got.kind == kind
        assert np.array_equal(got.F, alone.F)
        assert np.array_equal(got.cov2, alone.cov2)
        assert np.array_equal(got.zero_windows, alone.zero_windows)
    assert together[0].zero_windows.tolist() == [5, 2, 1, 0, 0]
    assert together[2].zero_windows.tolist() == [0, 0, 0, 0, 0]


def test_window_products_rejects_unequal_lengths():
    with pytest.raises(ShapeError, match=r"\[400, 401\]"):
        window_products((np.ones(400), np.ones(401)), (10, 20),
                        DetrendConfig(), ((0, 1),))
    # the force columns are rows of the same stack
    with pytest.raises(ShapeError, match=r"\[400, 401\]"):
        window_products((np.ones(400), np.ones(400), np.ones(401)),
                        (10, 20), DetrendConfig(), ((3, 4),), (2,))
