"""Monte-Carlo validation harness.

Three experiments reproduce the method's closed-form ground truths at desk
scale: an exponent-recovery sweep over (H_rx, H_ry, H_z) triples, a
scale-by-scale comparison of the DCCA and DPXA correlation coefficients on
contaminated bivariate FBM increments, and a multifractal recovery run on
binomial measures masked with strong Gaussian noise.

Every experiment maps one realization function of ``(spec, i)``, with the
spec bound by ``functools.partial``, over ``range(n)``: triple t of the
sweep owns realizations [t R, (t + 1) R), and rho and mf read i as the
seed index. Sub-seeds are derived per (triple, realization, stream) from
``seed_base``, each realization draws from the generators (whose cached
seed-independent factors serve every realization of a configuration in a
process), and results are aggregated in index order whatever the
parallelism degree, so rerunning a spec reproduces its files byte for byte.

The sweep and the coefficient comparison contaminate their pair as
x = b0 + b1 z + r_x and y = b0' + b2 z + r_y, with the intercepts and
slopes of the spec's ``ContaminationSpec``s. With an intercept every
window is centred, which removes b0 and b0', and cumulating and
detrending are linear, so the window products of x and y are bilinear
forms in those of (r_x, r_y, z): F2_xx = F2_rxrx + 2 b1 F2_rxz +
b1^2 F2_zz, and likewise for yy and xy. In a window the residual of x on
(1, z) is that of r_x, r_x - a_x z less its mean, with a_x the window's
OLS slope of r_x on z; so the DPXA products are bilinear forms in the
same products, with the per-window slopes a_x and a_y in place of b1
and b2. The window kernel therefore builds only r_x, r_y and z, and
returns a_x and a_y from its force regression; x, y and their residuals
are never built. The identity needs ``with_intercept``, which every
experiment uses.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import QGrid, ScaleGrid
from .detrend import DetrendConfig, WindowCovariances
from .errors import ConfigError, DpxaError, InsufficientScalesError
from .fluctuation import KIND_DCCA, KIND_DFA, KIND_DPXA, fluctuation_dcca, \
    rho_values, surface, window_covariances
from .generators import (
    MAX_BINOMIAL_DEPTH,
    BfbmSpec,
    BinomialSpec,
    ContaminationSpec,
    FgnSpec,
    check_length,
    contaminate,
    derive_seed,
    gen_bfbm_increments,
    gen_binomial,
    gen_fgn,
)
from .io import write_json, write_table_csv
from .scaling import (
    ScalingFit,
    check_fit_scales,
    fit_exponent,
    fit_slopes,
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
    """Named fields must lie in (0, 1) or be >= 1, and seed_base >= 0."""
    if spec.seed_base < 0:
        raise ConfigError(f"seed_base must be >= 0, got {spec.seed_base}")
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
        _check_fields(self, positive=("realizations",))
        check_length(self.length)
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

    @property
    def tasks(self) -> range:
        """One task per realization of each triple."""
        return range(len(self.hurst_grid) * self.realizations)

    def scales(self) -> ScaleGrid:
        """The scale grid of every realization."""
        grid = ScaleGrid.default(self.length)
        check_fit_scales(len(grid), grid.scales[0], grid.scales[-1])
        return grid


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
                      positive=("seeds",))
        check_length(self.length)
        if not -1.0 <= self.corr <= 1.0:
            raise ConfigError(f"corr must lie in [-1, 1], got {self.corr}")

    @property
    def tasks(self) -> range:
        """One task per seed."""
        return range(self.seeds)

    def scales(self) -> ScaleGrid:
        """The run's scale grid; the summary averages rho over s <= N/10,
        so at least one scale must lie there."""
        grid = ScaleGrid.default(self.length)
        if grid.scales[0] > self.length // 10:
            raise InsufficientScalesError(
                f"no scale at or below N/10 = {self.length // 10}; the "
                f"smallest is {grid.scales[0]}"
            )
        return grid


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

    @property
    def tasks(self) -> range:
        """One task per seed."""
        return range(self.seeds)

    def scales(self) -> ScaleGrid:
        """The run's scale grid: the top five octaves, since the
        window-level cascade shape only converges once several refinement
        levels fit inside a window, so smaller scales tilt the log-log fit."""
        length = 2 ** self.depth
        grid = ScaleGrid.dyadic(length, s_min=max(8, length // 64),
                                s_max=length // 4)
        check_fit_scales(len(grid), grid.scales[0], grid.scales[-1])
        return grid


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
# Both contaminated experiments stack (rx, ry, z) with force z and take the
# products of these pairs, with the slopes of rx and ry on z, from one
# kernel call; ``_contaminated`` builds those of x, y, x|z and y|z.
_BASE_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SWEEP_KINDS = (KIND_DFA,) * 5 + (KIND_DCCA, KIND_DCCA, KIND_DPXA)


def _contaminated(f2: np.ndarray, slopes: np.ndarray,
                  beta_x: ContaminationSpec, beta_y: ContaminationSpec,
                  own: bool = False) -> np.ndarray:
    """The covariance rows of the ``_BASE_PAIRS`` products ``f2`` (6, W)
    of the stack (rx, ry, z) as (rx rx, ry ry, z z, x x, y y, x y, rx ry,
    x|z y|z), and with ``own`` also (x|z x|z, y|z y|z). ``slopes`` (2, 1,
    W) holds the OLS slopes a_x, a_y of rx and ry on z in each window:

    F2_xx = F2_rxrx + 2 b1 F2_rxz + b1^2 F2_zz,
    F2_yy = F2_ryry + 2 b2 F2_ryz + b2^2 F2_zz,
    F2_xy = F2_rxry + b2 F2_rxz + b1 F2_zry + b1 b2 F2_zz,
    F2_x|z,y|z = F2_rxry - a_y F2_rxz - a_x F2_zry + a_x a_y F2_zz,
    F2_x|z,x|z = F2_rxrx - 2 a_x F2_rxz + a_x^2 F2_zz, and likewise y|z.

    The kernel zeroes a residual window that the force explains up to
    rounding (``detrend._VANISHING``). The algebra has no such rule and
    needs none: r_x and r_y are continuous draws independent of z, which
    explains none of their windows."""
    rxrx, ryry, zz, rxry, rxz, ryz = f2
    b1, b2 = beta_x.slope, beta_y.slope
    ax, ay = slopes[:, 0]
    xx = rxrx + 2.0 * b1 * rxz + b1 * b1 * zz
    yy = ryry + 2.0 * b2 * ryz + b2 * b2 * zz
    xy = rxry + b2 * rxz + b1 * ryz + b1 * b2 * zz
    dpxa = [rxry - ay * rxz - ax * ryz + ax * ay * zz]
    if own:
        dpxa += [rxrx - 2.0 * ax * rxz + ax * ax * zz,
                 ryry - 2.0 * ay * ryz + ay * ay * zz]
    return np.stack([rxrx, ryry, zz, xx, yy, xy, rxry, *dpxa])


def _contaminated_draw(spec, hurst, path,
                       scales: ScaleGrid) -> WindowCovariances:
    """Draw z ~ FGN(H_z) and (rx, ry) ~ bFBM(H_rx, H_ry, spec.corr) from
    streams 0 and 1 of the seed address (spec.seed_base, *path) and return
    the ``window_covariances`` of the ``_BASE_PAIRS`` of the stack
    (rx, ry, z) with force z, with the slopes of rx and ry on z."""
    hrx, hry, hz = hurst
    z_seed, r_seed = (derive_seed(spec.seed_base, *path, n) for n in (0, 1))
    z = gen_fgn(FgnSpec(hz, spec.length, z_seed))
    rx, ry = gen_bfbm_increments(BfbmSpec(hrx, hry, spec.corr, spec.length,
                                          r_seed))
    cfg = DetrendConfig()
    assert cfg.with_intercept, "the intercepts cancel only in centred windows"
    return window_covariances((rx, ry, z), scales, cfg, _BASE_PAIRS,
                              forces=(2,), slopes=(0, 1))


def _sweep_realization(spec: SweepSpec, i: int) -> tuple[float, ...]:
    """Exponents of realization i % R of triple i // R, R realizations."""
    t, real_idx = divmod(i, spec.realizations)
    hrx, hry, hz = spec.hurst_grid[t]
    try:
        grid = spec.scales()
        covs = _contaminated_draw(spec, (hrx, hry, hz), (t, real_idx), grid)
        covs = replace(covs, f2=_contaminated(covs.f2, covs.slopes,
                                              spec.beta_x, spec.beta_y))
        q2 = QGrid.second_order()
        # the eight q = 2 rows in one least-squares pass
        F = np.concatenate([sf.F for sf in
                            surface(covs, grid, q2, _SWEEP_KINDS)])
        h, _, _ = fit_slopes(grid.scales, F, q2.orders.repeat(len(F)),
                             np.ones(len(grid), dtype=bool))
        return tuple(h.tolist())
    except DpxaError as exc:
        raise type(exc)(
            f"triple ({hrx:g}, {hry:g}, {hz:g}) realization {real_idx}: {exc}"
        ) from exc


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(jobs: int, tasks: int) -> int:
    """The worker processes a run of ``tasks`` tasks uses at ``jobs``: a
    fork pool starts every worker at the first submit, and workers beyond
    the usable CPUs only wait for them."""
    return min(jobs, tasks, usable_cpus())


def _map_tasks(fn, tasks, jobs: int):
    jobs = workers(jobs, len(tasks))
    if jobs <= 1:
        return [fn(t) for t in tasks]
    # imported here: the pool's modules would slow every start of the CLI
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(tasks) // (4 * jobs))
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run the exponent-recovery sweep and fit the recovery regression."""
    raw = np.asarray(_map_tasks(partial(_sweep_realization, spec),
                                spec.tasks, jobs))
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

def _rho_realization(spec: RhoSpec, seed_idx: int) -> np.ndarray:
    scales = spec.scales()
    covs = _contaminated_draw(spec, (spec.hurst_x, spec.hurst_y,
                                     spec.hurst_z), (seed_idx,), scales)
    # the slopes vary by window, so the rows are per window before their
    # per-scale means: rho_dcca(x, y), rho_dcca(rx, ry) and
    # rho_curve(x, y | z)
    means = covs.sums(_contaminated(covs.f2, covs.slopes, spec.beta_x,
                                    spec.beta_y, own=True)) / covs.windows
    return np.stack([rho_values(means, which, scales)
                     for which in ((5, 3, 4), (6, 0, 1), (7, 8, 9))])


def run_rho_comparison(spec: RhoSpec, jobs: int = 1) -> RhoComparisonResult:
    """Seed-averaged DCCA/DPXA coefficient curves for the additive model."""
    curves = np.mean(_map_tasks(partial(_rho_realization, spec), spec.tasks,
                                jobs), axis=0)
    return RhoComparisonResult(spec, spec.scales().scales.copy(), curves[0],
                               curves[1], curves[2])


# --------------------------------------------------------------------------- #
# multifractal recovery

def _averaged_fit(orders: QGrid, fits: list[ScalingFit]) -> ScalingFit:
    h = np.mean([f.h for f in fits], axis=0)
    stderr = np.mean([f.h_stderr for f in fits], axis=0)
    r2 = np.mean([f.r_squared for f in fits], axis=0)
    fit = ScalingFit(orders, h, stderr, r2, fits[0].fit_range)
    return legendre(mass_exponents(fit))


def _mf_realization(spec: MfSpec,
                    seed_idx: int) -> tuple[ScalingFit, ScalingFit, float]:
    scales, orders, length = spec.scales(), QGrid.default(), 2 ** spec.depth
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
    scales = spec.scales()
    orders = QGrid.default()
    cfg = DetrendConfig()

    rx = gen_binomial(BinomialSpec(spec.p_x, spec.depth))
    ry = gen_binomial(BinomialSpec(spec.p_y, spec.depth))
    clean = legendre(mass_exponents(
        fit_exponent(fluctuation_dcca(rx, ry, scales, orders, cfg))))

    outputs = _map_tasks(partial(_mf_realization, spec), spec.tasks, jobs)
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
    # the spec's triples, not the noisy exponents, must determine the fit
    determined = np.linalg.matrix_rank(np.column_stack(
        [np.ones(len(spec.hurst_grid)), spec.hurst_grid])) == 4
    reg = result.regression
    for key, expected in zip(("intercept", "coef_h_rx", "coef_h_ry",
                              "coef_h_z"), SWEEP_EXPECTED_COEFFS):
        label = f"{key} (expected {expected:g})"
        ok = abs(reg[key] - expected) <= SWEEP_COEFF_TOL
        lines.append(_check(label, reg[key], ok) if determined else
                     f"  {label}: not evaluated")
    eligible = [abs(e["rel_err"]) for e in result.relative_errors
                if min(e["H_rx"], e["H_ry"]) >= 0.2]
    worst = max(eligible, default=None)
    label = (f"max |rel err| over {len(eligible)} pairs with min(H) >= 0.2 "
             f"(tolerance {SWEEP_REL_ERR_TOL:g})")
    lines.append(f"  {label}: not evaluated" if worst is None else
                 _check(label, worst, worst < SWEEP_REL_ERR_TOL))
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
