import tracemalloc

import numpy as np
import pytest

from dpxa import (
    BfbmSpec,
    BinomialSpec,
    CoherenceError,
    ConfigError,
    ContaminationSpec,
    FgnSpec,
    ShapeError,
    SizeError,
    contaminate,
    derive_seed,
    gen_bfbm_increments,
    gen_binomial,
    gen_fgn,
)
from dpxa.generators import (
    _bfbm_factor,
    _fgn_factor,
    _mirror,
    _spectrum,
    fgn_autocovariance,
)
from oracle import three_power_autocovariance, unfolded_bfbm, unfolded_fgn

SIZES = [1, 2, 3, 7, 4096, 2 ** 16]
HURSTS = [0.1, 0.5, 0.95]


def lag1_autocov(x):
    x = x - x.mean()
    return np.mean(x[1:] * x[:-1])


def test_fgn_white_noise_is_uncorrelated():
    n = 8192
    x = gen_fgn(FgnSpec(0.5, n, 1)).values
    assert abs(lag1_autocov(x) / x.var()) <= 3 / np.sqrt(n)


def test_fgn_lag1_autocovariance_matches_closed_form():
    # gamma(1) = 2^(2H-1) - 1 for unit-variance FGN
    h, n = 0.3, 4096
    expected = 2 ** (2 * h - 1) - 1
    got = np.mean([lag1_autocov(gen_fgn(FgnSpec(h, n, seed)).values)
                   for seed in range(5)])
    assert abs(got - expected) <= 0.05 * abs(expected)


def test_fgn_autocovariance_values():
    g = fgn_autocovariance(0.5, 4)
    assert g == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0])
    g = fgn_autocovariance(0.9, 2)
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx(2 ** 0.8 - 1)


@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("n", [1, 2, 7, 4096])
def test_half_spectrum_mirrors_full_fft(n, hurst):
    gamma = fgn_autocovariance(hurst, n)
    full = np.fft.fft(_mirror(gamma)).real
    half = _spectrum(gamma)
    assert half.size == n + 1
    err = np.max(np.abs(_mirror(half) - full))
    assert err <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("hurst", HURSTS + [0.3, 0.75])
@pytest.mark.parametrize("n", SIZES + [5, 1000])
def test_autocovariance_equals_three_power_form(n, hurst):
    assert np.array_equal(fgn_autocovariance(hurst, n),
                          three_power_autocovariance(hurst, n))


def _assert_matches(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("hurst", HURSTS)
@pytest.mark.parametrize("n", SIZES)
def test_fgn_matches_unfolded_synthesis(n, hurst):
    spec = FgnSpec(hurst, n, 17)
    _assert_matches(gen_fgn(spec).values, unfolded_fgn(spec))


# isotropic (equal indices, corr 0), perfectly coherent and anticoherent,
# and a general triple
@pytest.mark.parametrize("partner,corr", [("same", 0.0), ("same", 1.0),
                                          ("same", -1.0), (0.5, 0.3)])
@pytest.mark.parametrize("hurst", HURSTS)
@pytest.mark.parametrize("n", SIZES)
def test_bfbm_matches_unfolded_synthesis(n, hurst, partner, corr):
    spec = BfbmSpec(hurst, hurst if partner == "same" else partner, corr, n,
                    23)
    for got, want in zip(gen_bfbm_increments(spec), unfolded_bfbm(spec)):
        _assert_matches(got.values, want)


def _components(sample):
    return [s.values for s in sample] if isinstance(sample, tuple) \
        else [sample.values]


@pytest.mark.parametrize("n", [1, 2, 7, 4096])
def test_one_factor_serves_every_seed(n):
    # seed 3 computes the factor on a cold cache and seed 4 reuses it; both
    # samples equal cold recomputations bitwise and the unfolded synthesis
    # to rounding
    cases = [(gen_fgn, _fgn_factor, FgnSpec, unfolded_fgn, (h,))
             for h in HURSTS]
    cases += [(gen_bfbm_increments, _bfbm_factor, BfbmSpec, unfolded_bfbm,
               triple)
              for triple in ((0.3, 0.3, 0.5), (0.5, 0.5, 0.0),
                             (0.2, 0.7, 0.4))]
    for make, factor, spec_type, oracle, params in cases:
        factor.cache_clear()
        specs = [spec_type(*params, n, seed) for seed in (3, 4)]
        samples = [make(spec) for spec in specs]
        info = factor.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not factor(*params, n).flags.writeable
        for spec, sample in zip(specs, samples):
            factor.cache_clear()
            cold = _components(make(spec))
            want = oracle(spec)
            want = want if isinstance(want, tuple) else (want,)
            for got, again, exact in zip(_components(sample), cold, want):
                assert np.array_equal(got, again)
                _assert_matches(got, exact)


def _traced_peak_mib(make) -> float:
    make()  # first-call allocations are not the generator's own
    tracemalloc.start()
    try:
        # measure the spectrum, not a cache hit
        _fgn_factor.cache_clear()
        _bfbm_factor.cache_clear()
        make()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# the unfolded synthesis peaked at 5.6 MiB (fgn) and 24.6 MiB (bfbm)
@pytest.mark.parametrize("make,bound_mib", [
    (lambda: gen_fgn(FgnSpec(0.7, 2 ** 16, 0)), 4.8),
    (lambda: gen_bfbm_increments(BfbmSpec(0.3, 0.8, 0.5, 2 ** 16, 0)), 20.0),
], ids=["fgn", "bfbm"])
def test_generator_peak_memory(make, bound_mib):
    assert _traced_peak_mib(make) <= bound_mib


def test_bfbm_peak_memory_with_cached_factor():
    # the real folds are freed before the transforms: 4.5 MiB; folding the
    # draws apart and then combining them into one complex array peaked at
    # 6.1 MiB, and folding them straight into it at 5.1 MiB
    spec = BfbmSpec(0.3, 0.8, 0.5, 2 ** 16, 0)
    gen_bfbm_increments(spec)
    tracemalloc.start()
    try:
        gen_bfbm_increments(spec)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak_mib <= 5.5


@pytest.mark.parametrize("hurst", [0.3, 0.5])
def test_fgn_moments_at_large_n(hurst):
    # CLT-rate bound; persistent H > 0.5 converges slower by design
    n = 65536
    x = gen_fgn(FgnSpec(hurst, n, 2)).values
    assert abs(x.mean()) <= 5 / np.sqrt(n)
    assert abs(x.var() - 1.0) <= 5 / np.sqrt(n)


def test_fgn_determinism():
    a = gen_fgn(FgnSpec(0.7, 1024, 42)).values
    b = gen_fgn(FgnSpec(0.7, 1024, 42)).values
    c = gen_fgn(FgnSpec(0.7, 1024, 43)).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fgn_spec_validation():
    with pytest.raises(ConfigError):
        FgnSpec(0.0, 100, 0)
    with pytest.raises(ConfigError):
        FgnSpec(1.0, 100, 0)
    with pytest.raises(ConfigError):
        FgnSpec(0.5, 0, 0)


def test_bfbm_independent_components():
    n = 16384
    rx, ry = gen_bfbm_increments(BfbmSpec(0.5, 0.5, 0.0, n, 7))
    a = rx.values - rx.values.mean()
    b = ry.values - ry.values.mean()
    rho = np.mean(a * b) / (a.std() * b.std())
    assert abs(rho) <= 3 / np.sqrt(n)


def test_bfbm_cross_correlation_level():
    n = 65536
    vals = []
    for seed in range(20):
        rx, ry = gen_bfbm_increments(BfbmSpec(0.1, 0.1, 0.7, n, seed))
        a = rx.values - rx.values.mean()
        b = ry.values - ry.values.mean()
        vals.append(np.mean(a * b) / (a.std() * b.std()))
    assert abs(np.mean(vals) - 0.7) <= 0.03


def test_bfbm_marginal_autocovariance():
    # each component is marginally FGN with its own Hurst index
    n = 65536
    rx, ry = gen_bfbm_increments(BfbmSpec(0.2, 0.6, 0.5, n, 3))
    for series, h in ((rx, 0.2), (ry, 0.6)):
        x = series.values
        assert abs(x.var() - 1.0) <= 0.05
        expected = 2 ** (2 * h - 1) - 1
        assert abs(lag1_autocov(x) - expected) <= 0.02


def test_bfbm_perfect_coherence():
    rx, ry = gen_bfbm_increments(BfbmSpec(0.3, 0.3, 1.0, 4096, 5))
    assert np.allclose(rx.values, ry.values, atol=1e-10)
    rx, ry = gen_bfbm_increments(BfbmSpec(0.3, 0.3, -1.0, 4096, 5))
    assert np.allclose(rx.values, -ry.values, atol=1e-10)


def test_bfbm_inadmissible_triple():
    with pytest.raises(CoherenceError, match="0.95"):
        gen_bfbm_increments(BfbmSpec(0.1, 0.95, 0.9, 4096, 0))


def test_bfbm_determinism():
    a = gen_bfbm_increments(BfbmSpec(0.2, 0.6, 0.5, 2048, 11))
    b = gen_bfbm_increments(BfbmSpec(0.2, 0.6, 0.5, 2048, 11))
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)


def test_bfbm_spec_validation():
    with pytest.raises(ConfigError):
        BfbmSpec(0.5, 0.5, 1.5, 100, 0)
    with pytest.raises(ConfigError):
        BfbmSpec(-0.1, 0.5, 0.0, 100, 0)


def test_binomial_uniform_multiplier():
    m = gen_binomial(BinomialSpec(0.5, 10)).values
    assert m.size == 1024
    assert np.allclose(m, 2.0 ** -10, rtol=0, atol=0)


def test_binomial_extreme_paths():
    m = gen_binomial(BinomialSpec(0.3, 4)).values
    assert m.max() == pytest.approx(0.7 ** 4)
    assert m.min() == pytest.approx(0.3 ** 4)
    assert m[0] == pytest.approx(0.3 ** 4)  # leftmost path takes p every time


@pytest.mark.parametrize("p,depth", [(0.3, 16), (0.7, 12), (0.42, 20)])
def test_binomial_total_mass(p, depth):
    m = gen_binomial(BinomialSpec(p, depth)).values
    assert abs(m.sum() - 1.0) <= 1e-12


def test_binomial_depth_limit():
    with pytest.raises(SizeError):
        BinomialSpec(0.3, 25)
    with pytest.raises(ConfigError):
        BinomialSpec(1.0, 4)


def test_contaminate_examples():
    out = contaminate([1.0, 2.0], [0.0, 0.0], ContaminationSpec(2.0, 3.0))
    assert out.values.tolist() == [3.0, 4.0]
    out = contaminate([0.0, 0.0], [1.0, 2.0], ContaminationSpec(2.0, 3.0))
    assert out.values.tolist() == [5.0, 8.0]


def test_contaminate_shape_error():
    with pytest.raises(ShapeError):
        contaminate([1.0, 2.0], [1.0], ContaminationSpec(0.0, 1.0))


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
