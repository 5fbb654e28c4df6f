import json
import re
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

from dpxa import ConfigError, ContaminationSpec, DegenerateInputError, \
    QGrid, ScaleGrid, SizeError, detrend, experiments
from dpxa.detrend import DetrendConfig
from dpxa.errors import InsufficientScalesError, InvalidScaleError, \
    RankDeficiencyWarning
from dpxa.experiments import (
    _BASE_PAIRS,
    _EXPONENT_KEYS,
    _contaminated,
    _contaminated_draw,
    _mf_realization,
    _rho_realization,
    _stack_covariances,
    _sweep_realization,
    Check,
    EXPERIMENTS,
    MF_PRESETS,
    MfSpec,
    RHO_PRESETS,
    RhoSpec,
    SWEEP_PRESETS,
    SweepResult,
    SweepSpec,
    run_mf_recovery,
    run_rho_comparison,
    run_sweep,
    spec_from,
    write_outputs,
)
from dpxa.detrend import window_products
from dpxa.fluctuation import KIND_DCCA, KIND_DFA, KIND_DPXA, \
    fluctuation_dcca, fluctuation_dfa, rho_values, surface
from dpxa.generators import BfbmSpec, BinomialSpec, FgnSpec, _bfbm_factor, \
    _fgn_factor, derive_seed, gen_bfbm_increments, gen_binomial, gen_fgn
from dpxa.io import jsonable
from dpxa.scaling import fit_exponent
from oracle import CONTAMINATED_PAIRS, contaminate, contaminated_rows, \
    longdouble_products

BETAS = ContaminationSpec(2.0, 3.0)


def result_bytes(result) -> bytes:
    return json.dumps(jsonable(result.to_dict()), sort_keys=True).encode()


def test_sweep_single_triple_recovers_mean_hurst():
    spec = SweepSpec(((0.5, 0.5, 0.5),), realizations=5, length=2 ** 13,
                     corr=0.5, beta_x=BETAS, beta_y=BETAS, seed_base=1)
    result = run_sweep(spec)
    triple = result.triples[0]
    assert abs(triple["h_rxry"] - 0.5) <= 0.05
    # averaged cross exponent tracks the mean of the component estimates
    drift = abs(triple["h_rxry"] - 0.5 * (triple["h_rx"] + triple["h_ry"]))
    assert drift <= 0.03
    assert len(result.relative_errors) == 1


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(((0.6, 0.4, 0.5),), realizations=2, length=1024, corr=0.0,
                  beta_x=BETAS, beta_y=BETAS, seed_base=0)
    with pytest.raises(ConfigError):
        SweepSpec(((0.4, 0.6, 1.5),), realizations=2, length=1024, corr=0.0,
                  beta_x=BETAS, beta_y=BETAS, seed_base=0)


_GRID = "hurst_grid must be a non-empty sequence of (H_rx, H_ry, H_z) " \
    "triples, got "


@pytest.mark.parametrize("grid, message", [
    ((), _GRID + "()"),
    ([], _GRID + "[]"),
    (((0.5, 0.5),), _GRID + "((0.5, 0.5),)"),
    ([[0.5, 0.5]], _GRID + "[[0.5, 0.5]]"),
    ("abc", _GRID + "'abc'"),
    (0.5, _GRID + "0.5"),
    ((("a", 0.5, 0.5),),
     "each Hurst index in hurst_grid must be a finite number, got 'a'"),
    ([[0.5, 0.5, 0.5], [0.5, 0.5, True]],
     "each Hurst index in hurst_grid must be a finite number, got True"),
    (((0.4, 0.6, 1.5),),
     "each Hurst index in hurst_grid must lie in (0, 1), got 1.5"),
])
def test_sweep_grid_rule(grid, message):
    # the rule a --spec file's grid meets too (test_cli): a sweep of no
    # triples would return a result that no summary can read
    with pytest.raises(ConfigError) as info:
        SweepSpec(grid, 1, 4096, BETAS, BETAS)
    assert type(info.value) is ConfigError and str(info.value) == message


def test_sweep_grid_is_stored_as_tuples_of_floats():
    spec = SweepSpec([[np.float64(0.25), 0.5, 0.5]], 1, 4096, BETAS, BETAS)
    assert spec.hurst_grid == ((0.25, 0.5, 0.5),)
    assert type(spec.hurst_grid[0][0]) is float


@pytest.mark.parametrize("make", [
    lambda n: SweepSpec(((0.5, 0.5, 0.5),), 1, n, BETAS, BETAS),
    lambda n: RhoSpec(0.5, 0.3, 0.7, 0.9, n, 1, BETAS, BETAS)],
    ids=["sweep", "rho"])
def test_experiment_length_limit(make):
    # the generators' limit: a 2^24 spec builds its scale grid, one point
    # more is refused before any run
    assert make(2 ** 24).scales().scales[-1] <= 2 ** 24
    with pytest.raises(SizeError):
        make(2 ** 24 + 1)


@pytest.mark.parametrize("make, error", [
    (lambda: SweepSpec(((0.5, 0.5, 0.5),), 1, 16, BETAS, BETAS),
     InvalidScaleError),
    (lambda: RhoSpec(0.5, 0.3, 0.7, 0.9, 50, 1, BETAS, BETAS),
     InsufficientScalesError),
    (lambda: MfSpec(0.3, 0.4, 3, 1, BETAS, BETAS), InvalidScaleError)],
    ids=["sweep", "rho", "mf"])
def test_spec_refuses_a_length_its_grid_cannot_serve(make, error):
    # the spec checks its own scale grid when it is built, before any run
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and info.value.exit_code == 4


@pytest.mark.parametrize("make", [
    lambda n: SweepSpec(((0.5, 0.5, 0.5), (0.4, 0.6, 0.5)), n // 2, 1024,
                        BETAS, BETAS),
    lambda n: RhoSpec(0.5, 0.3, 0.7, 0.9, 1024, n, BETAS, BETAS),
    lambda n: MfSpec(0.3, 0.4, 10, n, BETAS, BETAS)],
    ids=["sweep", "rho", "mf"])
def test_experiment_task_limit(make):
    # specs are only built here: a run of the limit's size is never started
    assert len(make(experiments.MAX_TASKS).tasks) == experiments.MAX_TASKS
    with pytest.raises(SizeError, match="tasks exceed the limit"):
        make(experiments.MAX_TASKS + 2)


def test_sweep_spec_defaults():
    spec = SweepSpec(((0.5, 0.5, 0.5),), 2, 1024, BETAS, BETAS)
    assert spec.corr == 0.5 and spec.seed_base == 0
    assert SweepSpec(((0.5, 0.5, 0.5),), 2, 1024, BETAS, BETAS,
                     corr=0.25).corr == 0.25


def test_sweep_determinism_across_jobs():
    spec = SWEEP_PRESETS["smoke"]
    a = run_sweep(spec, jobs=1)
    b = run_sweep(spec, jobs=2)
    assert result_bytes(a) == result_bytes(b)


def _serial_pool(monkeypatch, cpus: int) -> list:
    """Patch the CPU probe to report ``cpus`` and the pool with a fake that
    starts no process and maps in this one; returns the list of each
    pool's ``max_workers``."""
    import concurrent.futures

    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    return workers


def test_pool_is_capped_at_the_task_count(monkeypatch):
    # a fork pool starts every worker at the first submit
    spec = SWEEP_PRESETS["smoke"]
    serial = run_sweep(spec, jobs=1)
    workers = _serial_pool(monkeypatch, cpus=64)
    capped = run_sweep(spec, jobs=64)
    assert workers == [2]
    assert result_bytes(capped) == result_bytes(serial)


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    workers = _serial_pool(monkeypatch, cpus=3)
    assert experiments._map_tasks(abs, range(-5, 5), 100000) == \
        [abs(i) for i in range(-5, 5)]
    assert workers == [3]
    # one usable CPU maps in this process, with no pool
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 1)
    assert experiments._map_tasks(abs, range(-5, 5), 100000) == \
        [abs(i) for i in range(-5, 5)]
    assert workers == [3]


@pytest.mark.parametrize("jobs, used", [(64, 2), (1, 1)])
def test_summary_reports_the_workers_used(monkeypatch, tmp_path, capsys,
                                          jobs, used):
    # the smoke sweep has 2 tasks, so 64 requested jobs on 64 usable CPUs
    # run as 2 workers
    from dpxa import cli

    workers = _serial_pool(monkeypatch, cpus=64)
    assert cli.main(["experiment", "sweep", "--preset", "smoke", "--out",
                     str(tmp_path), "--jobs", str(jobs)]) == 0
    assert workers == ([used] if used > 1 else [])
    tail = f"(jobs={jobs}, workers={used})"
    assert capsys.readouterr().out.rstrip().endswith(tail)
    assert (tmp_path / "summary.txt").read_text().rstrip().endswith(tail)


def test_usable_cpus_read_the_affinity_mask(monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert experiments.usable_cpus() == 3


_REGRESSION_KEYS = ("intercept", "coef_h_rx", "coef_h_ry", "coef_h_z")


def _regression_checks(result) -> list[Check]:
    _, checks = EXPERIMENTS["sweep"].checks(result)
    return [c for c in checks if c.label.startswith(_REGRESSION_KEYS)]


def test_smoke_sweep_summary_leaves_the_regression_unevaluated():
    # one triple cannot determine four coefficients
    checks = _regression_checks(run_sweep(SWEEP_PRESETS["smoke"]))
    assert len(checks) == 4
    assert all(c.passed is None for c in checks)


@pytest.mark.parametrize("grid, determined", [
    (((0.2, 0.4, 0.5), (0.4, 0.4, 0.5), (0.2, 0.6, 0.5), (0.6, 0.6, 0.5)),
     False),
    (((0.2, 0.4, 0.2), (0.4, 0.4, 0.5), (0.2, 0.6, 0.8), (0.6, 0.6, 0.2)),
     True),
], ids=["coplanar", "full-rank"])
def test_sweep_summary_judges_the_regression_of_a_determined_grid(
        grid, determined):
    spec = SweepSpec(grid, realizations=1, length=2 ** 10, beta_x=BETAS,
                     beta_y=BETAS)
    triples = [{"H_rx": a, "H_ry": b, "H_z": c, "h_rx": a, "h_ry": b,
                "h_rxry": 0.5 * (a + b)} for a, b, c in grid]
    regression = dict(zip(_REGRESSION_KEYS, (0.3, 0.5, 0.5, 0.0)))
    checks = _regression_checks(SweepResult(spec, triples, regression, []))
    if determined:
        assert checks == [
            Check("intercept (expected 0)", 0.3, 0.1, False),
            Check("coef_h_rx (expected 0.5)", 0.5, 0.1, True),
            Check("coef_h_ry (expected 0.5)", 0.5, 0.1, True),
            Check("coef_h_z (expected 0)", 0.0, 0.1, True)]
    else:
        assert all(c.passed is None for c in checks)
        assert len(checks) == 4


def test_sweep_files_byte_identical_across_jobs(tmp_path):
    # 2 triples x 8 realizations, one task each, run in this process at
    # --jobs 1 and in chunks of 2 tasks per pool worker call at --jobs 2
    spec = SweepSpec(((0.3, 0.6, 0.5), (0.5, 0.5, 0.5)), realizations=8,
                     length=2 ** 10, corr=0.5, beta_x=BETAS, beta_y=BETAS,
                     seed_base=4)
    for jobs in (1, 2):
        (tmp_path / str(jobs)).mkdir()
        write_outputs(run_sweep(spec, jobs=jobs), tmp_path / str(jobs))
    for name in ("results.json", "sweep.csv"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


def test_rho_computes_each_factor_once():
    spec = RhoSpec(corr=0.5, hurst_x=0.3, hurst_y=0.6, hurst_z=0.8,
                   length=2 ** 10, seeds=4, beta_x=BETAS, beta_y=BETAS,
                   seed_base=5)
    _fgn_factor.cache_clear()
    _bfbm_factor.cache_clear()
    run_rho_comparison(spec, jobs=1)
    assert _fgn_factor.cache_info().misses == 1
    assert _bfbm_factor.cache_info().misses == 1


def test_rho_files_survive_a_sweep_in_between(tmp_path):
    # the sweep's factors (another length, five configurations) push the
    # rho factors out of the cache; recomputed, they give the same files
    spec = RHO_PRESETS["smoke"]
    sweep = SweepSpec(tuple((h, h + 0.1, 0.9 - h) for h in
                            (0.2, 0.3, 0.4, 0.5, 0.6)),
                      realizations=1, length=2 ** 10, corr=0.5, beta_x=BETAS,
                      beta_y=BETAS, seed_base=6)
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir(), second.mkdir()
    write_outputs(run_rho_comparison(spec), first)
    run_sweep(sweep)
    misses = _fgn_factor.cache_info().misses
    write_outputs(run_rho_comparison(spec), second)
    assert _fgn_factor.cache_info().misses == misses + 1
    for name in ("results.json", "rho.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_rho_perfect_coherence_gives_unit_coefficient():
    spec = RhoSpec(corr=1.0, hurst_x=0.3, hurst_y=0.3, hurst_z=0.8,
                   length=2 ** 12, seeds=2, beta_x=BETAS, beta_y=BETAS,
                   seed_base=3)
    result = run_rho_comparison(spec)
    assert np.max(np.abs(result.rho_dpxa - 1.0)) <= 1e-6


def test_rho_uncorrelated_components():
    # with corr = 0 only the common driver correlates x and y
    spec = RhoSpec(corr=0.0, hurst_x=0.3, hurst_y=0.3, hurst_z=0.8,
                   length=2 ** 13, seeds=4, beta_x=BETAS, beta_y=BETAS,
                   seed_base=11)
    result = run_rho_comparison(spec)
    mask = result.scales <= spec.length // 10
    assert np.max(np.abs(result.rho_dpxa[mask])) <= 0.1
    assert np.max(np.abs(result.rho_dcca_r[mask])) <= 0.1
    assert np.min(result.rho_dcca_xy[mask]) >= 0.85


def test_mf_recovery_without_contamination_matches_clean():
    spec = MfSpec(p_x=0.3, p_y=0.4, depth=12, seeds=2,
                  beta_x=ContaminationSpec(2.0, 0.0),
                  beta_y=ContaminationSpec(2.0, 0.0), seed_base=7)
    result = run_mf_recovery(spec)
    gap = np.max(np.abs(result.fits["mfdcca_xy"].tau
                        - result.fits["mfdcca_r"].tau))
    assert gap <= 1e-6
    assert result.snr == float("inf")


def test_mf_recovery_near_degenerate_cascade():
    # p close to 1/2: essentially monofractal residual measures
    spec = MfSpec(p_x=0.49, p_y=0.49, depth=12, seeds=3, beta_x=BETAS,
                  beta_y=BETAS, seed_base=7)
    result = run_mf_recovery(spec)
    fit = result.fits["mfdpxa_xyz"]
    assert fit.h.max() - fit.h.min() <= 0.05
    alpha = fit.alpha[np.isfinite(fit.alpha)]
    assert alpha.max() - alpha.min() <= 0.1


def test_mf_recovery_uniform_cascade_is_degenerate():
    # p = 1/2 exactly: the residual measures are constant, so the clean
    # baseline has all-zero detrended profiles
    spec = MfSpec(p_x=0.5, p_y=0.5, depth=12, seeds=2, beta_x=BETAS,
                  beta_y=BETAS, seed_base=7)
    with pytest.raises(DegenerateInputError):
        run_mf_recovery(spec)


@pytest.mark.parametrize("name, preset", [
    pytest.param(name, preset, id=f"{name}-{key}")
    for name, row in EXPERIMENTS.items()
    for key, preset in row.presets.items()])
def test_every_preset_round_trips_through_a_spec_file(name, preset):
    # a preset is the mapping a spec file holds: written out as JSON and
    # read back, it builds the same spec (the full sweep built, not run)
    spec = EXPERIMENTS[name].spec
    assert spec_from(spec, json.loads(json.dumps(asdict(preset)))) == preset


def test_presets_exist():
    assert "desk" in SWEEP_PRESETS and "full" in SWEEP_PRESETS
    assert "paper-fig2a-desk" in RHO_PRESETS
    assert "paper-fig3-desk" in MF_PRESETS
    preset = RHO_PRESETS["paper-fig2a-desk"]
    assert (preset.corr, preset.hurst_z, preset.length) == (0.7, 0.95, 2 ** 16)
    assert MF_PRESETS["paper-fig3-desk"].p_x == 0.3
    # a spec's constructor builds its grid; each preset's must hold the
    # four scales a fit needs
    for presets in (SWEEP_PRESETS, RHO_PRESETS, MF_PRESETS):
        assert all(len(spec.scales()) >= 4 for spec in presets.values())


def test_summaries_and_writers(tmp_path):
    sweep = run_sweep(SWEEP_PRESETS["smoke"])
    titles, checks = EXPERIMENTS["sweep"].checks(sweep)
    assert titles[1].startswith("recovery regression")
    assert any(c.passed is not None for c in checks)
    write_outputs(sweep, tmp_path)
    assert (tmp_path / "results.json").exists()
    assert (tmp_path / "sweep.csv").read_text().startswith(
        "H_rx,H_ry,H_z,statistic,value")

    rho = run_rho_comparison(RHO_PRESETS["smoke"])
    _, checks = EXPERIMENTS["rho"].checks(rho)
    assert "rho_dpxa" in checks[0].label
    write_outputs(rho, tmp_path)
    assert (tmp_path / "rho.csv").exists()

    mf = run_mf_recovery(MF_PRESETS["smoke"])
    titles, _ = EXPERIMENTS["mf"].checks(mf)
    assert "signal-to-noise" in titles[1]
    write_outputs(mf, tmp_path)
    assert (tmp_path / "mass_exponents.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    spec = RHO_PRESETS["smoke"]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir(), second.mkdir()
    write_outputs(run_rho_comparison(spec), first)
    write_outputs(run_rho_comparison(spec), second)
    for name in ("results.json", "rho.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# --------------------------------------------------------------------------- #
# the linear-contamination pair algebra

def _contaminated_stack(hurst, corr, length, seeds, beta_x, beta_y):
    """(rx, ry, z, x, y) drawn as a contaminated realization draws them."""
    hrx, hry, hz = hurst
    z = gen_fgn(FgnSpec(hz, length, seeds[0]))
    rx, ry = gen_bfbm_increments(BfbmSpec(hrx, hry, corr, length, seeds[1]))
    return rx, ry, z, contaminate(rx, z, beta_x), contaminate(ry, z, beta_y)


# the unequal slopes fail the algebra if b1 and b2 trade places
ALGEBRA_BETAS = [(BETAS, BETAS),
                 (ContaminationSpec(2.0, 3.0), ContaminationSpec(-7.0, -0.5))]
# the DPXA pair (x|z, y|z) and its two sides
DPXA_PAIRS = (("x|z", "y|z"), ("x|z", "x|z"), ("y|z", "y|z"))


@pytest.mark.parametrize("cancellation", [0.0, np.inf],
                         ids=["all-explicit", "no-explicit"])
@pytest.mark.parametrize("hz", [0.5, 0.95])
@pytest.mark.parametrize("betas", ALGEBRA_BETAS, ids=["equal", "unequal"])
def test_sweep_algebra_matches_direct_stack(monkeypatch, cancellation, hz,
                                            betas):
    # _CANCELLATION 0 sends every window to the explicit detrend, inf none
    monkeypatch.setattr(detrend, "_CANCELLATION", cancellation)
    stack = _contaminated_stack((0.3, 0.7, hz), 0.5, 2 ** 12, (21, 22),
                                *betas)
    grid = ScaleGrid.default(len(stack[0]))
    cfg = DetrendConfig()
    # the direct stack builds x and y: (rx, ry, z, x, y, x|z, y|z)
    direct_pairs = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (3, 4), (0, 1),
                    (8, 9), (8, 8), (9, 9))
    direct = window_products(stack, grid.scales, cfg, direct_pairs,
                             forces=(2,))
    # the algebra builds (rx, ry, z) and takes the slopes of rx and ry on z
    algebra = window_products(stack[:3], grid.scales, cfg, _BASE_PAIRS,
                              forces=(2,), slopes=(0, 1))
    split = np.cumsum(direct.windows)[:-1]
    for want, f2, slopes in zip(np.split(direct.f2, split, axis=1),
                                np.split(algebra.f2, split, axis=1),
                                np.split(algebra.slopes, split, axis=1)):
        got = _contaminated(f2, slopes, *betas, CONTAMINATED_PAIRS)
        # each pair (i, j) judged on the scale sqrt(F2_ii F2_jj)
        diag = {pair[0]: want[n] for n, pair in enumerate(direct_pairs)
                if pair[0] == pair[1]}
        scale = np.sqrt(np.stack([diag[i] * diag[j]
                                  for i, j in direct_pairs]))
        assert np.max(np.abs(got - want) / scale) <= 1e-12


@pytest.mark.parametrize("cancellation", [0.0, np.inf],
                         ids=["all-explicit", "no-explicit"])
@pytest.mark.parametrize("betas", ALGEBRA_BETAS, ids=["equal", "unequal"])
def test_rho_algebra_matches_direct_stack(monkeypatch, cancellation, betas):
    monkeypatch.setattr(detrend, "_CANCELLATION", cancellation)
    spec = RhoSpec(corr=0.7, hurst_x=0.1, hurst_y=0.1, hurst_z=0.95,
                   length=2 ** 12, seeds=1, beta_x=betas[0],
                   beta_y=betas[1], seed_base=9)
    scales = spec.scales()
    got = _rho_realization(spec, 0)
    # the direct stack (x, y, rx, ry, z) with force z: six built rows
    rx, ry, z, x, y = _contaminated_stack(
        (spec.hurst_x, spec.hurst_y, spec.hurst_z), spec.corr, spec.length,
        [derive_seed(spec.seed_base, 0, n) for n in (0, 1)], *betas)
    pairs = tuple((a + i, a + j) for a in (0, 2, 5)
                  for i, j in ((0, 1), (0, 0), (1, 1)))
    covs = window_products((x, y, rx, ry, z), scales.scales,
                           DetrendConfig(), pairs, forces=(4,))
    means = covs.means()
    want = np.stack([rho_values(means, (3 * k, 3 * k + 1, 3 * k + 2), scales)
                     for k in range(3)])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("spec, path", [
    # the rho preset's regime, where the force's profile rules at large s
    (replace(RHO_PRESETS["paper-fig2a-desk"], seeds=1), (0,)),
    (SweepSpec(((0.2, 0.8, 0.2),), realizations=1, length=2 ** 14,
               beta_x=BETAS, beta_y=ContaminationSpec(-7.0, -0.5)), (0, 0)),
    (SweepSpec(((0.6, 0.6, 0.8),), realizations=1, length=2 ** 14,
               beta_x=BETAS, beta_y=BETAS), (0, 0)),
], ids=["rho-desk", "sweep-low-z", "sweep-high-z"])
def test_dpxa_rows_match_extended_precision(spec, path):
    # the DPXA rows both realizations take from the algebra, against x|z
    # and y|z of the drawn x and y detrended in long double, each pair
    # judged on the scale sqrt(F2_ii F2_jj)
    hurst = (spec.hurst_grid[0] if isinstance(spec, SweepSpec) else
             (spec.hurst_x, spec.hurst_y, spec.hurst_z))
    scales = spec.scales()
    covs = _contaminated_draw(spec, hurst, path, scales)
    rows = _contaminated(covs.f2, covs.slopes, spec.beta_x, spec.beta_y,
                         DPXA_PAIRS)
    _, _, z, x, y = _contaminated_stack(
        hurst, spec.corr, spec.length,
        [derive_seed(spec.seed_base, *path, n) for n in (0, 1)],
        spec.beta_x, spec.beta_y)
    pairs = ((0, 1), (0, 0), (1, 1))
    split = np.cumsum(covs.windows)[:-1]
    for s, got in zip(scales.scales, np.split(rows, split, axis=1)):
        want, own = longdouble_products(np.stack([x.values, y.values]), s,
                                        1, pairs, forces=z.values[None])
        scale = np.sqrt(np.stack([own[i] * own[j] for i, j in pairs]))
        assert float((np.abs(got - want) / scale).max()) <= 1e-12, s


def test_constant_force_window_gets_slope_zero():
    # z constant on the first window of the smallest scale: there the
    # slopes are 0, the window counts as rank deficient as in the direct
    # stack, and the DPXA rows are those of the direct stack
    rx, ry, z, _, _ = _contaminated_stack((0.3, 0.7, 0.5), 0.5, 2 ** 10,
                                          (5, 6), BETAS, BETAS)
    grid = ScaleGrid.default(len(z))
    z = z.values.copy()
    z[:grid.scales[0]] = 0.25
    x, y = (contaminate(r, z, BETAS) for r in (rx, ry))
    cfg = DetrendConfig()
    with pytest.warns(RankDeficiencyWarning, match=" 1 of "):
        covs = window_products((rx, ry, z), grid.scales, cfg, _BASE_PAIRS,
                               forces=(2,), slopes=(0, 1))
    with pytest.warns(RankDeficiencyWarning, match=" 1 of "):
        direct = window_products((rx, ry, z, x, y), grid.scales, cfg,
                                 ((8, 9), (8, 8), (9, 9)), forces=(2,))
    assert covs.deficient.tolist() == direct.deficient.tolist()
    assert covs.deficient[0] == 1
    assert covs.slopes[:, 0].tolist() == [0.0, 0.0]
    assert covs.slopes[:, 1:].all()
    got = _contaminated(covs.f2, covs.slopes, BETAS, BETAS, DPXA_PAIRS)
    scale = np.sqrt(np.stack([direct.f2[1] * direct.f2[2], direct.f2[1],
                              direct.f2[2]]))
    assert float((np.abs(got - direct.f2) / scale).max()) <= 1e-12


def test_contaminated_realizations_build_three_rows(monkeypatch):
    # x, y, x|z and y|z are never built: the pairs of each realization
    # name rx, ry and z only, and the force regression builds no residual
    # row, only the slopes of rx and ry on z
    named, residuals = [], []
    remove_forces = detrend._remove_forces

    def spy(series, scales, cfg, pairs, forces=(), slopes=()):
        named.append({i for pair in pairs for i in pair} | set(slopes))
        return window_products(series, scales, cfg, pairs, forces, slopes)

    def spy_regression(A, *args):
        residuals.append(len(A))
        return remove_forces(A, *args)

    monkeypatch.setattr(experiments, "window_products", spy)
    monkeypatch.setattr(detrend, "_remove_forces", spy_regression)
    spec = SWEEP_PRESETS["smoke"]
    _sweep_realization(spec, 0)
    _rho_realization(RHO_PRESETS["smoke"], 0)
    _mf_realization(MF_PRESETS["smoke"], 0)
    assert [len(rows) for rows in named] == [3, 3, 3]
    assert residuals and set(residuals) == {0}


def _experiment_stack(experiment, log2_length):
    """(rx, ry, z) and the grid as the experiment draws them."""
    if experiment == "mf":
        spec = replace(MF_PRESETS["smoke"], depth=log2_length)
        rx, ry = (gen_binomial(BinomialSpec(p, log2_length))
                  for p in (spec.p_x, spec.p_y))
        z = gen_fgn(FgnSpec(spec.noise_hurst, 2 ** log2_length,
                            derive_seed(spec.seed_base, 0, 0)))
        return rx, ry, z, spec.scales()
    hurst, corr = (((0.3, 0.7, 0.5), 0.5) if experiment == "sweep" else
                   ((0.1, 0.1, 0.95), 0.7))
    rx, ry, z, _, _ = _contaminated_stack(hurst, corr, 2 ** log2_length,
                                          (31, 32), BETAS, BETAS)
    return rx, ry, z, ScaleGrid.default(2 ** log2_length)


@pytest.mark.parametrize("constant_window", [False, True],
                         ids=["drawn", "constant-first-window"])
@pytest.mark.parametrize("log2_length", [10, 14])
@pytest.mark.parametrize("experiment", ["sweep", "rho", "mf"])
def test_named_pairs_are_the_hand_expansions_bitwise(experiment, log2_length,
                                                     constant_window):
    # each named pair equals its hand-expanded formula in every bit; a
    # force constant on the first window gives slopes 0 there
    rx, ry, z, grid = _experiment_stack(experiment, log2_length)
    if constant_window:
        z = z.values.copy()
        z[:grid.scales[0]] = 0.25
        with pytest.warns(RankDeficiencyWarning):
            covs = _stack_covariances(rx, ry, z, grid)
        assert covs.slopes[:, 0].tolist() == [0.0, 0.0]
    else:
        covs = _stack_covariances(rx, ry, z, grid)
    for betas in ALGEBRA_BETAS:
        got = _contaminated(covs.f2, covs.slopes, *betas, CONTAMINATED_PAIRS)
        want = contaminated_rows(covs.f2, covs.slopes, *betas)
        for pair, row, reference in zip(CONTAMINATED_PAIRS, got, want):
            assert np.array_equal(row, reference), pair


def test_realizations_derive_todays_kinds(monkeypatch):
    seen = []

    def spy(covs, scales, orders, kinds):
        seen.append(tuple(kinds))
        return surface(covs, scales, orders, kinds)

    monkeypatch.setattr(experiments, "surface", spy)
    _sweep_realization(SWEEP_PRESETS["smoke"], 0)
    _mf_realization(MF_PRESETS["smoke"], 0)
    assert seen == [(KIND_DFA,) * 5 + (KIND_DCCA, KIND_DCCA, KIND_DPXA),
                    (KIND_DCCA, KIND_DCCA, KIND_DPXA)]


def test_realizations_ask_for_exactly_the_pairs_they_read(monkeypatch):
    asked = []

    def spy(f2, slopes, beta_x, beta_y, pairs):
        asked.append(list(pairs))
        return _contaminated(f2, slopes, beta_x, beta_y, pairs)

    monkeypatch.setattr(experiments, "_contaminated", spy)
    _sweep_realization(SWEEP_PRESETS["smoke"], 0)
    _rho_realization(RHO_PRESETS["smoke"], 0)
    _mf_realization(MF_PRESETS["smoke"], 0)
    sweep, rho, mf = asked
    assert sweep == [("rx", "rx"), ("ry", "ry"), ("z", "z"), ("x", "x"),
                     ("y", "y"), ("x", "y"), ("rx", "ry"), ("x|z", "y|z")]
    assert len(rho) == 9 and set(rho) == {
        (u, v) for a, b in (("x", "y"), ("rx", "ry"), ("x|z", "y|z"))
        for u, v in ((a, b), (a, a), (b, b))}
    assert mf == [("x", "y"), ("rx", "ry"), ("x|z", "y|z")]


@pytest.mark.parametrize("seed_idx", [0, 1])
def test_mf_dpxa_rows_match_extended_precision(monkeypatch, seed_idx):
    # the DPXA row the mf realization fits, against rx|z and ry|z of the
    # drawn cascades and noise detrended in long double, judged on the
    # scale sqrt(F2_ii F2_jj); the cascades' rms is 6e-4 of the noise's
    seen = []

    def spy(covs, scales, orders, kinds):
        seen.append((covs.f2[list(kinds).index(KIND_DPXA)], covs.windows))
        return surface(covs, scales, orders, kinds)

    monkeypatch.setattr(experiments, "surface", spy)
    spec = MF_PRESETS["smoke"]
    _mf_realization(spec, seed_idx)
    [(got, windows)] = seen
    r = np.stack([gen_binomial(BinomialSpec(p, spec.depth)).values
                  for p in (spec.p_x, spec.p_y)])
    z = gen_fgn(FgnSpec(spec.noise_hurst, 2 ** spec.depth,
                        derive_seed(spec.seed_base, seed_idx, 0))).values
    split = np.cumsum(windows)[:-1]
    for s, row in zip(spec.scales().scales, np.split(got, split)):
        [want], own = longdouble_products(r, s, 1, ((0, 1),),
                                          forces=z[None])
        assert float((np.abs(row - want) / np.sqrt(own[0] * own[1])).max()) \
            <= 1e-12, s


def test_one_runner_maps_the_tasks():
    # _map_tasks is called from ``run`` and nowhere else
    import ast
    import inspect

    from dpxa import cli

    callers = []
    for module in (experiments, cli):
        for fn in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(fn, ast.FunctionDef):
                callers += [fn.name for node in ast.walk(fn)
                            if isinstance(node, ast.Name)
                            and node.id == "_map_tasks"]
    assert callers == ["run"]


def test_sweep_exponents_are_those_of_the_plain_estimators():
    spec = SWEEP_PRESETS["smoke"]
    t, real_idx = 0, 1
    h = dict(zip(_EXPONENT_KEYS, _sweep_realization(
        spec, t * spec.realizations + real_idx)))
    _, _, _, x, y = _contaminated_stack(
        spec.hurst_grid[t], spec.corr, spec.length,
        [derive_seed(spec.seed_base, t, real_idx, n) for n in (0, 1)],
        spec.beta_x, spec.beta_y)
    grid, q2 = spec.scales(), QGrid.second_order()
    for key, sf in (("h_x", fluctuation_dfa(x, grid, q2)),
                    ("h_y", fluctuation_dfa(y, grid, q2)),
                    ("h_xy", fluctuation_dcca(x, y, grid, q2))):
        want = float(fit_exponent(sf).h[0])
        assert abs(h[key] - want) <= 1e-12 * abs(want), key


# --------------------------------------------------------------------------- #
# one realization shape

TWO_TRIPLES = SweepSpec(((0.5, 0.5, 0.5), (0.4, 0.6, 0.5)), realizations=2,
                        length=2 ** 10, beta_x=BETAS, beta_y=BETAS)


@pytest.mark.parametrize("run, spec, realization, count", [
    (run_sweep, TWO_TRIPLES, _sweep_realization, 4),
    (run_rho_comparison, RHO_PRESETS["smoke"], _rho_realization, 2),
    (run_mf_recovery, MF_PRESETS["smoke"], _mf_realization, 2),
], ids=["sweep", "rho", "mf"])
def test_runs_map_a_spec_bound_realization_over_an_index_range(
        monkeypatch, run, spec, realization, count):
    calls = []
    original = experiments._map_tasks

    def spy(fn, tasks, jobs):
        calls.append((fn, tasks))
        return original(fn, tasks, jobs)

    monkeypatch.setattr(experiments, "_map_tasks", spy)
    run(spec)
    [(fn, tasks)] = calls
    assert tasks == range(count)
    assert isinstance(fn, partial)
    assert (fn.func, fn.args, fn.keywords) == (realization, (spec,), {})


def test_sweep_index_splits_into_triple_and_realization():
    # index t R + r is realization r of triple t ...
    spec, t, r = TWO_TRIPLES, 1, 0
    h_x = _sweep_realization(spec, t * spec.realizations + r)[
        _EXPONENT_KEYS.index("h_x")]
    _, _, _, x, _ = _contaminated_stack(
        spec.hurst_grid[t], spec.corr, spec.length,
        [derive_seed(spec.seed_base, t, r, n) for n in (0, 1)],
        spec.beta_x, spec.beta_y)
    want = float(fit_exponent(fluctuation_dfa(
        x, spec.scales(), QGrid.second_order())).h[0])
    assert abs(h_x - want) <= 1e-12 * abs(want)
    # ... so triple t averages the indices [t R, (t + 1) R)
    raw = [_sweep_realization(spec, i) for i in range(4)]
    for t, entry in enumerate(run_sweep(spec).triples):
        mean = np.mean(raw[2 * t:2 * t + 2], axis=0)
        assert [entry[k] for k in _EXPONENT_KEYS] == mean.tolist()


# --------------------------------------------------------------------------- #
# rho from per-scale means

RHO_SCALES = ScaleGrid(np.array([10, 20, 40]))


@pytest.mark.parametrize("cov_xy, var_x, message", [
    ([0.5, 0.0, 0.0], [1.0, 0.0, 0.0],
     "constant residuals give a zero denominator at scale 20"),
    ([0.5, 1.5, -2.0], [1.0, 1.0, 1.0],
     "correlation 1.5 outside [-1, 1] at scale 20"),
    # the first offending scale decides which of the two is raised
    ([0.5, 1.5, 0.0], [1.0, 1.0, 0.0],
     "correlation 1.5 outside [-1, 1] at scale 20"),
    ([0.0, 1.5, 0.5], [0.0, 1.0, 1.0],
     "constant residuals give a zero denominator at scale 10"),
    # a negative variance product is not clipped to -1
    ([0.5, 0.5, 0.5], [1.0, -1.0, 1.0],
     "correlation nan outside [-1, 1] at scale 20"),
], ids=["zero", "outside", "outside-first", "zero-first", "nan"])
def test_rho_values_names_the_first_offending_scale(cov_xy, var_x, message):
    means = np.array([cov_xy, var_x, [1.0, 1.0, 1.0]])
    with pytest.raises(DegenerateInputError,
                       match=f"^{re.escape(message)}$"):
        rho_values(means, (0, 1, 2), RHO_SCALES)


def test_rho_values_clips_within_tolerance():
    means = np.array([[1.0 + 5e-10, -1.0 - 5e-10, 0.25], [1.0] * 3,
                      [1.0] * 3])
    assert rho_values(means, (0, 1, 2), RHO_SCALES).tolist() == \
        [1.0, -1.0, 0.25]
