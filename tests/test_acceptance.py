"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Statistical checks run at desk scale with fixed seeds; every tolerance is
pinned here, not computed. Run with `pytest -v -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json
import os

import numpy as np
import pytest

from dpxa import (
    BfbmSpec,
    BinomialSpec,
    FgnSpec,
    ForceMatrix,
    QGrid,
    ScaleGrid,
    binomial_mass_exponent,
    fit_exponent,
    fluctuation_dcca,
    fluctuation_dfa,
    fluctuation_dpxa,
    gen_bfbm_increments,
    gen_binomial,
    gen_fgn,
    mass_exponents,
    rho_dcca,
)
from dpxa.experiments import (
    MF_PRESETS,
    RHO_PRESETS,
    SWEEP_PRESETS,
    run_mf_recovery,
    run_rho_comparison,
    run_sweep,
    write_outputs,
)

JOBS = min(8, os.cpu_count() or 1)


def report(name: str, detail: str, ok: bool) -> bool:
    print(f"\nacceptance [{name}]: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_exact_reductions():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(250, 3000))
        x = rng.standard_normal(n) * rng.uniform(0.5, 20)
        y = rng.standard_normal(n) + rng.uniform(-1, 1) * x
        grid = ScaleGrid.default(n)
        orders = QGrid(np.array([-2.0, 0.0, 2.0]))
        dcca = fluctuation_dcca(x, y, grid, orders)
        dpxa = fluctuation_dpxa(x, y, None, grid, orders)
        worst = max(worst, float(np.max(np.abs(dpxa.F - dcca.F) / dcca.F)))
        dfa = fluctuation_dfa(x, grid, orders)
        dcca_xx = fluctuation_dcca(x, x, grid, orders)
        worst = max(worst, float(np.max(np.abs(dcca_xx.F - dfa.F) / dfa.F)))
    ok = worst <= 1e-12
    assert report("exact reductions", f"max rel diff {worst:.2e} "
                  "(tol 1e-12, 50 inputs)", ok)


def test_02_generator_fidelity():
    n, seeds = 65536, 20
    grid = ScaleGrid.default(n)
    q2 = QGrid.second_order()
    worst = 0.0
    details = []
    for hurst in (0.2, 0.5, 0.8):
        hs = [fit_exponent(fluctuation_dfa(
                  gen_fgn(FgnSpec(hurst, n, 1000 + s)), grid, q2)).h[0]
              for s in range(seeds)]
        err = abs(float(np.mean(hs)) - hurst)
        details.append(f"H={hurst}: {np.mean(hs):.4f}")
        worst = max(worst, err)
    ok = worst <= 0.03
    assert report("generator fidelity",
                  f"{'; '.join(details)}; max err {worst:.4f} (tol 0.03)", ok)


def test_03_cross_hurst_identity():
    n, seeds = 2 ** 14, 20
    grid = ScaleGrid.default(n)
    q2 = QGrid.second_order()
    worst = 0.0
    details = []
    for hx, hy in ((0.2, 0.6), (0.3, 0.9), (0.5, 0.5)):
        hs = []
        for s in range(seeds):
            rx, ry = gen_bfbm_increments(BfbmSpec(hx, hy, 0.5, n, 40 + s))
            hs.append(fit_exponent(fluctuation_dcca(rx, ry, grid, q2)).h[0])
        err = abs(float(np.mean(hs)) - (hx + hy) / 2)
        details.append(f"({hx},{hy}): {np.mean(hs):.4f}")
        worst = max(worst, err)
    ok = worst <= 0.05
    assert report("cross-Hurst identity",
                  f"{'; '.join(details)}; max err {worst:.4f} (tol 0.05)", ok)


def test_04_dpxa_recovery_sweep():
    result = run_sweep(SWEEP_PRESETS["desk"], jobs=JOBS)
    reg = result.regression
    coeffs = (reg["intercept"], reg["coef_h_rx"], reg["coef_h_ry"],
              reg["coef_h_z"])
    coeff_err = max(abs(c - e) for c, e in zip(coeffs, (0.0, 0.5, 0.5, 0.0)))
    eligible = [e for e in result.relative_errors
                if min(e["H_rx"], e["H_ry"]) >= 0.2]
    rel_err = max(abs(e["rel_err"]) for e in eligible)
    ok = coeff_err <= 0.10 and rel_err < 0.10
    assert report(
        "DPXA recovery sweep",
        f"coeffs ({coeffs[0]:+.3f}, {coeffs[1]:.3f}, {coeffs[2]:.3f}, "
        f"{coeffs[3]:+.3f}) max dev {coeff_err:.3f} (tol 0.10); "
        f"max |rel err| {rel_err:.3f} over {len(eligible)} pairs (tol 0.10)",
        ok)


def test_05_dpxa_coefficient():
    spec = RHO_PRESETS["paper-fig2a-desk"]
    result = run_rho_comparison(spec, jobs=JOBS)
    mask = result.scales <= spec.length // 10
    mean_dpxa = float(result.rho_dpxa[mask].mean())
    dcca_small = float(result.rho_dcca_xy[0])
    err = abs(mean_dpxa - spec.corr)
    ok = err <= 0.08 and dcca_small >= 0.9
    assert report(
        "DPXA coefficient",
        f"mean rho_dpxa {mean_dpxa:.4f} vs {spec.corr} over s <= N/10 "
        f"(tol 0.08); rho_dcca(x,y) at s={int(result.scales[0])}: "
        f"{dcca_small:.4f} (floor 0.9)", ok)


def test_06_mf_dpxa_recovery():
    result = run_mf_recovery(MF_PRESETS["paper-fig3-desk"], jobs=JOBS)
    tau_err = float(np.max(np.abs(result.fits["mfdpxa_xyz"].tau
                                  - result.theory_tau)))
    alpha = result.fits["mfdcca_xy"].alpha
    alpha = alpha[np.isfinite(alpha)]
    width = float(alpha.max() - alpha.min())
    center = float(0.5 * (alpha.max() + alpha.min()))
    ok = tau_err <= 0.15 and width <= 0.2 and abs(center - 0.5) <= 0.1
    assert report(
        "MF-DPXA recovery",
        f"max |tau_xyz - theory| {tau_err:.4f} (tol 0.15); mfdcca(x,y) "
        f"spectrum width {width:.4f} (tol 0.2) center {center:.4f} "
        "(0.5 +- 0.1)", ok)


def test_07_coefficient_bounds():
    ok = True
    for case in range(100):
        rng = np.random.default_rng(10_000 + case)
        n = int(rng.integers(250, 2000))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if case % 3 == 0:
            # adversarial: long near-constant stretch
            x[: n // 2] = 1e-10 * rng.standard_normal(n // 2)
        if case % 4 == 0:
            y = y * 1e-8
        if case % 5 == 0:
            y = 0.999 * x + 1e-7 * rng.standard_normal(n)
        rho = rho_dcca(x, y, ScaleGrid.default(n)).rho
        ok &= bool(np.all(np.abs(rho) <= 1.0))
    assert report("coefficient bounds",
                  "|rho(s)| <= 1 on 100 randomized inputs", ok)


def test_08_binomial_mass_exponent_oracle():
    qs = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
    measure = gen_binomial(BinomialSpec(0.3, 16))

    # independent oracle: box-sum partition function on the measure itself
    values = measure.values
    oracle = []
    for q in qs:
        log_z, log_eps = [], []
        for m in range(2, 15):
            boxes = values.reshape(-1, 2 ** m).sum(axis=1)
            log_z.append(np.log2(np.sum(boxes ** q)))
            log_eps.append(m - 16)
        oracle.append(np.polyfit(log_eps, log_z, 1)[0])
    closed = binomial_mass_exponent(qs, 0.3)
    oracle_gap = float(np.max(np.abs(np.asarray(oracle) - closed)))

    # estimator under test: MF-DFA over the converged (top-octave) scales
    grid = ScaleGrid.dyadic(2 ** 16, s_min=1024)
    fit = mass_exponents(fit_exponent(
        fluctuation_dfa(measure, grid, QGrid(qs))))
    est_err = float(np.max(np.abs(fit.tau - closed)))
    ok = oracle_gap <= 1e-9 and est_err <= 0.05
    assert report(
        "binomial mass exponents",
        f"closed form vs box-sum oracle {oracle_gap:.2e} (tol 1e-9); "
        f"MF-DFA tau err {est_err:.4f} (tol 0.05)", ok)


def test_09_determinism(tmp_path):
    runs = {
        "sweep": (run_sweep, SWEEP_PRESETS["smoke"],
                  ("results.json", "sweep.csv")),
        "rho": (run_rho_comparison, RHO_PRESETS["smoke"],
                ("results.json", "rho.csv")),
        "mf": (run_mf_recovery, MF_PRESETS["smoke"],
               ("results.json", "mass_exponents.csv")),
    }
    ok = True
    for name, (runner, spec, files) in runs.items():
        first = tmp_path / f"{name}_1"
        second = tmp_path / f"{name}_2"
        first.mkdir(), second.mkdir()
        write_outputs(runner(spec, jobs=1), first)
        write_outputs(runner(spec, jobs=2), second)
        for fname in files:
            ok &= (first / fname).read_bytes() == (second / fname).read_bytes()
    assert report("determinism",
                  "rerun with identical spec+seed (jobs 1 vs 2) is "
                  "byte-identical", ok)
