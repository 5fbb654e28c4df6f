"""Monte-Carlo validation harness.

Three experiments reproduce the method's closed-form ground truths at desk
scale: an exponent-recovery sweep over (H_rx, H_ry, H_z) triples, a
scale-by-scale comparison of the DCCA and DPXA correlation coefficients on
contaminated bivariate FBM increments, and a multifractal recovery run on
binomial measures masked with strong Gaussian noise.

Every experiment is deterministic given ``seed_base``: sub-seeds are
derived per (triple, realization, stream), each realization is one task
that draws its series from the generators (whose cached seed-independent
factors serve every realization of a configuration in a process), and
aggregation order is fixed regardless of the parallelism degree, so
rerunning a spec reproduces its result files byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import QGrid, ScaleGrid
from .detrend import DetrendConfig
from .errors import ConfigError, DpxaError
from .fluctuation import KIND_DCCA, KIND_DFA, KIND_DPXA, fluctuation_dcca, \
    rho_values, surface, window_covariances
from .generators import (
    MAX_BINOMIAL_DEPTH,
    BfbmSpec,
    BinomialSpec,
    ContaminationSpec,
    FgnSpec,
    contaminate,
    derive_seed,
    gen_bfbm_increments,
    gen_binomial,
    gen_fgn,
)
from .io import write_json, write_table_csv
from .scaling import (
    ScalingFit,
    fit_exponent,
    joint_binomial_mass_exponent,
    legendre,
    mass_exponents,
)

# expected values and tolerances used by the pass/fail summaries
SWEEP_EXPECTED_COEFFS = (0.0, 0.5, 0.5, 0.0)
SWEEP_COEFF_TOL = 0.10
SWEEP_REL_ERR_TOL = 0.10
SWEEP_CONSISTENCY_TOL = 0.03
RHO_MEAN_TOL = 0.08
RHO_DCCA_FLOOR = 0.9
MF_TAU_TOL = 0.15
MF_WIDTH_TOL = 0.2
MF_CENTER_TOL = 0.1


# --------------------------------------------------------------------------- #
# specs

def _check_fields(spec, unit=(), positive=()) -> None:
    """Named fields must lie in (0, 1) or be >= 1."""
    for name in unit:
        value = getattr(spec, name)
        if not 0.0 < value < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1), got {value}")
    for name in positive:
        if getattr(spec, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got "
                              f"{getattr(spec, name)}")


@dataclass(frozen=True)
class SweepSpec:
    """Exponent-recovery sweep over (H_rx, H_ry, H_z) triples."""

    hurst_grid: tuple[tuple[float, float, float], ...]
    realizations: int
    length: int
    corr: float = field(default=0.5, kw_only=True)
    beta_x: ContaminationSpec
    beta_y: ContaminationSpec
    seed_base: int = 0

    def __post_init__(self):
        _check_fields(self, positive=("realizations", "length"))
        if not -1.0 <= self.corr <= 1.0:
            raise ConfigError(f"corr must lie in [-1, 1], got {self.corr}")
        for triple in self.hurst_grid:
            hrx, hry, hz = triple
            if hrx > hry:
                raise ConfigError(
                    f"triple {triple}: H_rx must be <= H_ry (symmetry "
                    "reduction)"
                )
            for h in triple:
                if not (0.0 < h < 1.0):
                    raise ConfigError(f"triple {triple}: Hurst index {h} "
                                      "outside (0, 1)")


@dataclass(frozen=True)
class RhoSpec:
    """Coefficient comparison on one contaminated-BFBM configuration."""

    corr: float
    hurst_x: float
    hurst_y: float
    hurst_z: float
    length: int
    seeds: int
    beta_x: ContaminationSpec
    beta_y: ContaminationSpec
    seed_base: int = 0

    def __post_init__(self):
        _check_fields(self, unit=("hurst_x", "hurst_y", "hurst_z"),
                      positive=("length", "seeds"))
        if not -1.0 <= self.corr <= 1.0:
            raise ConfigError(f"corr must lie in [-1, 1], got {self.corr}")


@dataclass(frozen=True)
class MfSpec:
    """Multifractal recovery on noise-masked binomial measures."""

    p_x: float
    p_y: float
    depth: int
    seeds: int
    beta_x: ContaminationSpec
    beta_y: ContaminationSpec
    noise_hurst: float = 0.5
    seed_base: int = 0

    def __post_init__(self):
        _check_fields(self, unit=("p_x", "p_y", "noise_hurst"),
                      positive=("depth", "seeds"))
        if self.depth > MAX_BINOMIAL_DEPTH:
            raise ConfigError(f"depth must be <= {MAX_BINOMIAL_DEPTH}, got "
                              f"{self.depth}")


def _desk_sweep_grid() -> tuple[tuple[float, float, float], ...]:
    pair_values = (0.2, 0.4, 0.6, 0.8)
    z_values = (0.2, 0.5, 0.8)
    return tuple(
        (hrx, hry, hz)
        for hrx in pair_values for hry in pair_values if hrx <= hry
        for hz in z_values
    )


def _full_sweep_grid() -> tuple[tuple[float, float, float], ...]:
    values = tuple(np.round(np.arange(0.10, 0.951, 0.05), 2))
    return tuple(
        (hrx, hry, hz)
        for hrx in values for hry in values if hrx <= hry
        for hz in values
    )


_BETAS = ContaminationSpec(intercept=2.0, slope=3.0)

SWEEP_PRESETS = {
    "desk": SweepSpec(_desk_sweep_grid(), realizations=20, length=2 ** 14,
                      corr=0.5, beta_x=_BETAS, beta_y=_BETAS,
                      seed_base=12345),
    # the full grid needs a weaker cross-correlation: corr=0.5 is not
    # positive semidefinite at pairs like (0.10, 0.95)
    "full": SweepSpec(_full_sweep_grid(), realizations=100, length=2 ** 16,
                      corr=0.25, beta_x=_BETAS, beta_y=_BETAS,
                      seed_base=12345),
    "smoke": SweepSpec(((0.5, 0.5, 0.5),), realizations=2, length=2 ** 12,
                       corr=0.5, beta_x=_BETAS, beta_y=_BETAS,
                       seed_base=12345),
}

RHO_PRESETS = {
    "paper-fig2a-desk": RhoSpec(corr=0.7, hurst_x=0.1, hurst_y=0.1,
                                hurst_z=0.95, length=2 ** 16, seeds=10,
                                beta_x=_BETAS, beta_y=_BETAS,
                                seed_base=777),
    "smoke": RhoSpec(corr=0.7, hurst_x=0.1, hurst_y=0.1, hurst_z=0.95,
                     length=2 ** 12, seeds=2, beta_x=_BETAS, beta_y=_BETAS,
                     seed_base=777),
}

MF_PRESETS = {
    "paper-fig3-desk": MfSpec(p_x=0.3, p_y=0.4, depth=16, seeds=8,
                              beta_x=_BETAS, beta_y=_BETAS, seed_base=55),
    "smoke": MfSpec(p_x=0.3, p_y=0.4, depth=10, seeds=2, beta_x=_BETAS,
                    beta_y=_BETAS, seed_base=55),
}


# --------------------------------------------------------------------------- #
# results

@dataclass(frozen=True, eq=False)
class SweepResult:
    spec: SweepSpec
    triples: list        # one dict of averaged exponents per triple
    regression: dict     # h_xyz ~ 1 + h_rx + h_ry + h_z coefficients
    relative_errors: list  # one dict per (H_rx, H_ry) pair

    def to_dict(self) -> dict:
        return {
            "experiment": "sweep",
            "spec": asdict(self.spec),
            "triples": self.triples,
            "regression": self.regression,
            "relative_errors": self.relative_errors,
        }


@dataclass(frozen=True, eq=False)
class RhoComparisonResult:
    spec: RhoSpec
    scales: np.ndarray
    rho_dcca_xy: np.ndarray
    rho_dcca_r: np.ndarray
    rho_dpxa: np.ndarray

    def to_dict(self) -> dict:
        return {
            "experiment": "rho",
            "spec": asdict(self.spec),
            "scales": self.scales,
            "curves": {
                "rho_dcca_xy": self.rho_dcca_xy,
                "rho_dcca_r": self.rho_dcca_r,
                "rho_dpxa": self.rho_dpxa,
            },
        }


@dataclass(frozen=True, eq=False)
class MfRecoveryResult:
    spec: MfSpec
    orders: np.ndarray
    scales: np.ndarray
    fits: dict           # name -> ScalingFit for the three measured curves
    theory_tau: np.ndarray
    snr: float           # realized std(r_x) / std(slope * z)

    def to_dict(self) -> dict:
        curves = {
            name: {
                "h": fit.h, "h_stderr": fit.h_stderr,
                "r_squared": fit.r_squared, "tau": fit.tau,
                "alpha": fit.alpha, "f_alpha": fit.f_alpha,
            }
            for name, fit in self.fits.items()
        }
        curves["theory"] = {"tau": self.theory_tau}
        return {
            "experiment": "mf",
            "spec": asdict(self.spec),
            "orders": self.orders,
            "scales": self.scales,
            "curves": curves,
            "snr": self.snr,
        }


# --------------------------------------------------------------------------- #
# sweep

_EXPONENT_KEYS = ("h_rx", "h_ry", "h_z", "h_x", "h_y", "h_xy", "h_rxry",
                  "h_xyz")
# window-covariance pairs of the stack (rx, ry, z, x, y) with force z, one
# per exponent key: x|z and y|z are rows 5 + 3 and 5 + 4
_SWEEP_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (3, 4), (0, 1),
                (8, 9))
_SWEEP_KINDS = (KIND_DFA,) * 5 + (KIND_DCCA, KIND_DCCA, KIND_DPXA)


def _sweep_task(task) -> tuple[float, ...]:
    """Exponents of realization ``real_idx`` of triple ``t``."""
    t, (hrx, hry, hz), real_idx, corr, length, beta_x, beta_y, seed_base = task
    try:
        z = gen_fgn(FgnSpec(hz, length,
                            derive_seed(seed_base, t, real_idx, 0)))
        rx, ry = gen_bfbm_increments(BfbmSpec(
            hrx, hry, corr, length, derive_seed(seed_base, t, real_idx, 1)))
        x = contaminate(rx, z, beta_x)
        y = contaminate(ry, z, beta_y)
        grid = ScaleGrid.default(length)
        covs = window_covariances((rx, ry, z, x, y), grid, DetrendConfig(),
                                  _SWEEP_PAIRS, forces=(2,))
        return tuple(float(fit_exponent(sf).h[0]) for sf in
                     surface(covs, grid, QGrid.second_order(), _SWEEP_KINDS))
    except DpxaError as exc:
        raise type(exc)(
            f"triple ({hrx:g}, {hry:g}, {hz:g}) realization {real_idx}: {exc}"
        ) from exc


def _map_tasks(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    # imported here: the pool's modules would slow every start of the CLI
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(tasks) // (4 * jobs))
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run the exponent-recovery sweep and fit the recovery regression."""
    tasks = [(t, triple, real_idx, spec.corr, spec.length, spec.beta_x,
              spec.beta_y, spec.seed_base)
             for t, triple in enumerate(spec.hurst_grid)
             for real_idx in range(spec.realizations)]
    raw = np.asarray(_map_tasks(_sweep_task, tasks, jobs))
    per_triple = raw.reshape(len(spec.hurst_grid), spec.realizations,
                             len(_EXPONENT_KEYS)).mean(axis=1)

    triples = []
    for (hrx, hry, hz), row in zip(spec.hurst_grid, per_triple):
        entry = {"H_rx": hrx, "H_ry": hry, "H_z": hz}
        entry.update(zip(_EXPONENT_KEYS, (float(v) for v in row)))
        triples.append(entry)

    design = np.column_stack([
        np.ones(len(triples)),
        per_triple[:, 0], per_triple[:, 1], per_triple[:, 2],
    ])
    coeffs, _, _, _ = np.linalg.lstsq(design, per_triple[:, 7], rcond=None)
    regression = {
        "intercept": float(coeffs[0]),
        "coef_h_rx": float(coeffs[1]),
        "coef_h_ry": float(coeffs[2]),
        "coef_h_z": float(coeffs[3]),
    }

    pairs: dict[tuple[float, float], list[int]] = {}
    for idx, (hrx, hry, _) in enumerate(spec.hurst_grid):
        pairs.setdefault((hrx, hry), []).append(idx)
    relative_errors = []
    for (hrx, hry), idxs in sorted(pairs.items()):
        mean_xyz = float(per_triple[idxs, 7].mean())
        mean_rxry = float(per_triple[idxs, 6].mean())
        relative_errors.append({
            "H_rx": hrx, "H_ry": hry,
            "mean_h_xyz": mean_xyz,
            "mean_h_rxry": mean_rxry,
            "rel_err": (mean_xyz - mean_rxry) / mean_rxry,
        })
    return SweepResult(spec, triples, regression, relative_errors)


# --------------------------------------------------------------------------- #
# coefficient comparison

_RHO_PAIRS = tuple((a + i, a + j) for a in (0, 2, 5)
                   for i, j in ((0, 1), (0, 0), (1, 1)))


def _rho_realization(args) -> np.ndarray:
    spec, seed_idx, scales = args
    z = gen_fgn(FgnSpec(spec.hurst_z, spec.length,
                        derive_seed(spec.seed_base, seed_idx, 0)))
    rx, ry = gen_bfbm_increments(
        BfbmSpec(spec.hurst_x, spec.hurst_y, spec.corr, spec.length,
                 derive_seed(spec.seed_base, seed_idx, 1)))
    x = contaminate(rx, z, spec.beta_x)
    y = contaminate(ry, z, spec.beta_y)
    # stack (x, y, rx, ry, z) with force z, x|z and y|z being rows 5 and 6:
    # rho_dcca(x, y), rho_dcca(rx, ry) and the partial rho_curve(x, y | z)
    covs = window_covariances((x, y, rx, ry, z), scales, DetrendConfig(),
                              _RHO_PAIRS, forces=(4,))
    return np.stack([rho_values(covs, (3 * k, 3 * k + 1, 3 * k + 2), scales)
                     for k in range(3)])


def run_rho_comparison(spec: RhoSpec, jobs: int = 1) -> RhoComparisonResult:
    """Seed-averaged DCCA/DPXA coefficient curves for the additive model."""
    scales = ScaleGrid.default(spec.length)
    tasks = [(spec, k, scales) for k in range(spec.seeds)]
    curves = np.mean(_map_tasks(_rho_realization, tasks, jobs), axis=0)
    return RhoComparisonResult(spec, scales.scales.copy(), curves[0],
                               curves[1], curves[2])


# --------------------------------------------------------------------------- #
# multifractal recovery

def _averaged_fit(orders: QGrid, fits: list[ScalingFit]) -> ScalingFit:
    h = np.mean([f.h for f in fits], axis=0)
    stderr = np.mean([f.h_stderr for f in fits], axis=0)
    r2 = np.mean([f.r_squared for f in fits], axis=0)
    fit = ScalingFit(orders, h, stderr, r2, fits[0].fit_range)
    return legendre(mass_exponents(fit))


def _mf_realization(args) -> tuple[ScalingFit, ScalingFit, float]:
    spec, seed_idx, scales, orders = args
    length = 2 ** spec.depth
    rx = gen_binomial(BinomialSpec(spec.p_x, spec.depth))
    ry = gen_binomial(BinomialSpec(spec.p_y, spec.depth))
    z = gen_fgn(FgnSpec(spec.noise_hurst, length,
                        derive_seed(spec.seed_base, seed_idx, 0)))
    x = contaminate(rx, z, spec.beta_x)
    y = contaminate(ry, z, spec.beta_y)
    # stack (x, y, z) with force z: MF-DCCA of (x, y) and MF-DPXA of
    # (x|z, y|z), rows 3 + 0 and 3 + 1
    covs = window_covariances((x, y, z), scales, DetrendConfig(),
                              ((0, 1), (3, 4)), forces=(2,))
    fit_xy, fit_xyz = (fit_exponent(sf) for sf in
                       surface(covs, scales, orders, (KIND_DCCA, KIND_DPXA)))
    noise_std = float(np.std(spec.beta_x.slope * z.values))
    snr = float(np.std(rx.values) / noise_std) if noise_std > 0 else float("inf")
    return fit_xy, fit_xyz, snr


def run_mf_recovery(spec: MfSpec, jobs: int = 1) -> MfRecoveryResult:
    """Multifractal recovery: MF-DCCA on the contaminated pair, MF-DPXA
    given the noise, and MF-DCCA on the clean measures, plus the
    closed-form reference mass exponents."""
    length = 2 ** spec.depth
    # top five octaves: the window-level cascade shape only converges once
    # several refinement levels fit inside a window, so smaller scales tilt
    # the log-log fit
    scales = ScaleGrid.dyadic(length, s_min=max(8, length // 64),
                              s_max=length // 4)
    orders = QGrid.default()
    cfg = DetrendConfig()

    rx = gen_binomial(BinomialSpec(spec.p_x, spec.depth))
    ry = gen_binomial(BinomialSpec(spec.p_y, spec.depth))
    clean = legendre(mass_exponents(
        fit_exponent(fluctuation_dcca(rx, ry, scales, orders, cfg))))

    tasks = [(spec, k, scales, orders) for k in range(spec.seeds)]
    outputs = _map_tasks(_mf_realization, tasks, jobs)
    fits = {
        "mfdcca_xy": _averaged_fit(orders, [out[0] for out in outputs]),
        "mfdpxa_xyz": _averaged_fit(orders, [out[1] for out in outputs]),
        "mfdcca_r": clean,
    }
    theory_tau = joint_binomial_mass_exponent(orders.orders, spec.p_x,
                                              spec.p_y)
    snr = float(np.mean([out[2] for out in outputs]))
    return MfRecoveryResult(spec, orders.orders.copy(), scales.scales.copy(),
                            fits, theory_tau, snr)


# --------------------------------------------------------------------------- #
# summaries and file output

def _check(label: str, value: float, ok: bool) -> str:
    return f"  {label}: {value:.4f} -> {'PASS' if ok else 'FAIL'}"


def summarize_sweep(result: SweepResult) -> str:
    spec = result.spec
    lines = [
        f"sweep: {len(spec.hurst_grid)} triples x {spec.realizations} "
        f"realizations, N={spec.length}, corr={spec.corr:g}, "
        f"seed_base={spec.seed_base}",
        "recovery regression h_xyz ~ 1 + h_rx + h_ry + h_z "
        f"(tolerance +-{SWEEP_COEFF_TOL:g}):",
    ]
    reg = result.regression
    for key, expected in zip(("intercept", "coef_h_rx", "coef_h_ry",
                              "coef_h_z"), SWEEP_EXPECTED_COEFFS):
        ok = abs(reg[key] - expected) <= SWEEP_COEFF_TOL
        lines.append(_check(f"{key} (expected {expected:g})", reg[key], ok))
    eligible = [e for e in result.relative_errors
                if min(e["H_rx"], e["H_ry"]) >= 0.2]
    worst = max(abs(e["rel_err"]) for e in eligible)
    lines.append(_check(
        f"max |rel err| over {len(eligible)} pairs with min(H) >= 0.2 "
        f"(tolerance {SWEEP_REL_ERR_TOL:g})", worst,
        worst < SWEEP_REL_ERR_TOL))
    drift = max(abs(t["h_rxry"] - 0.5 * (t["h_rx"] + t["h_ry"]))
                for t in result.triples)
    lines.append(_check(
        f"max |h_rxry - (h_rx+h_ry)/2| (tolerance {SWEEP_CONSISTENCY_TOL:g})",
        drift, drift <= SWEEP_CONSISTENCY_TOL))
    return "\n".join(lines)


def summarize_rho(result: RhoComparisonResult) -> str:
    spec = result.spec
    mask = result.scales <= spec.length // 10
    mean_dpxa = float(result.rho_dpxa[mask].mean())
    err = abs(mean_dpxa - spec.corr)
    small_scale = float(result.rho_dcca_xy[0])
    lines = [
        f"rho comparison: corr={spec.corr:g}, H=({spec.hurst_x:g}, "
        f"{spec.hurst_y:g}), H_z={spec.hurst_z:g}, N={spec.length}, "
        f"{spec.seeds} seeds, seed_base={spec.seed_base}",
        _check(
            f"|mean rho_dpxa - {spec.corr:g}| over s <= N/10 "
            f"(tolerance {RHO_MEAN_TOL:g})", err, err <= RHO_MEAN_TOL),
        _check(
            f"rho_dcca(x,y) at s={int(result.scales[0])} "
            f"(floor {RHO_DCCA_FLOOR:g})", small_scale,
            small_scale >= RHO_DCCA_FLOOR),
    ]
    return "\n".join(lines)


def _spectrum_stats(fit: ScalingFit) -> tuple[float, float]:
    alpha = fit.alpha[np.isfinite(fit.alpha)]
    width = float(alpha.max() - alpha.min())
    center = float(0.5 * (alpha.max() + alpha.min()))
    return width, center


def summarize_mf(result: MfRecoveryResult) -> str:
    spec = result.spec
    tau_err = float(np.max(np.abs(result.fits["mfdpxa_xyz"].tau
                                  - result.theory_tau)))
    width, center = _spectrum_stats(result.fits["mfdcca_xy"])
    lines = [
        f"mf recovery: p=({spec.p_x:g}, {spec.p_y:g}), depth={spec.depth}, "
        f"{spec.seeds} seeds, seed_base={spec.seed_base}",
        f"  realized signal-to-noise ratio: {result.snr:.3e}",
        _check(
            f"max |tau_xyz - theory| over q (tolerance {MF_TAU_TOL:g})",
            tau_err, tau_err <= MF_TAU_TOL),
        _check(
            f"mfdcca(x,y) spectrum width (tolerance {MF_WIDTH_TOL:g})",
            width, width <= MF_WIDTH_TOL),
        _check(
            f"mfdcca(x,y) spectrum center (0.5 +- {MF_CENTER_TOL:g})",
            center, abs(center - 0.5) <= MF_CENTER_TOL),
    ]
    return "\n".join(lines)


def write_sweep_outputs(result: SweepResult, outdir) -> None:
    outdir = Path(outdir)
    write_json(outdir / "results.json", result.to_dict())
    rows = []
    for entry in result.triples:
        for key in _EXPONENT_KEYS:
            rows.append([entry["H_rx"], entry["H_ry"], entry["H_z"], key,
                         entry[key]])
    for entry in result.relative_errors:
        rows.append([entry["H_rx"], entry["H_ry"], "", "rel_err",
                     entry["rel_err"]])
    write_table_csv(outdir / "sweep.csv",
                    ["H_rx", "H_ry", "H_z", "statistic", "value"], rows)


def write_rho_outputs(result: RhoComparisonResult, outdir) -> None:
    outdir = Path(outdir)
    write_json(outdir / "results.json", result.to_dict())
    rows = []
    for name, curve in (("rho_dcca_xy", result.rho_dcca_xy),
                        ("rho_dcca_r", result.rho_dcca_r),
                        ("rho_dpxa", result.rho_dpxa)):
        for s, v in zip(result.scales, curve):
            rows.append([int(s), name, v])
    write_table_csv(outdir / "rho.csv", ["scale", "curve", "rho"], rows)


def write_mf_outputs(result: MfRecoveryResult, outdir) -> None:
    outdir = Path(outdir)
    write_json(outdir / "results.json", result.to_dict())
    rows = []
    for name, fit in result.fits.items():
        for i, q in enumerate(result.orders):
            rows.append([q, name, fit.h[i], fit.tau[i], fit.alpha[i],
                         fit.f_alpha[i]])
    for i, q in enumerate(result.orders):
        rows.append([q, "theory", "", result.theory_tau[i], "", ""])
    write_table_csv(outdir / "mass_exponents.csv",
                    ["q", "curve", "h", "tau", "alpha", "f_alpha"], rows)


# --------------------------------------------------------------------------- #
# the experiments by name

# name -> (spec type, presets, run, write outputs, summarize): the one
# table through which the CLI reaches an experiment
EXPERIMENTS = {
    "sweep": (SweepSpec, SWEEP_PRESETS, run_sweep, write_sweep_outputs,
              summarize_sweep),
    "rho": (RhoSpec, RHO_PRESETS, run_rho_comparison, write_rho_outputs,
            summarize_rho),
    "mf": (MfSpec, MF_PRESETS, run_mf_recovery, write_mf_outputs,
           summarize_mf),
}
