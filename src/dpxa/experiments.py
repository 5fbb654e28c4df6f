"""Monte-Carlo validation harness.

Three experiments reproduce the method's closed-form ground truths at desk
scale: an exponent-recovery sweep over (H_rx, H_ry, H_z) triples, a
scale-by-scale comparison of the DCCA and DPXA correlation coefficients on
contaminated bivariate FBM increments, and a multifractal recovery run on
binomial measures masked with strong Gaussian noise.

Each experiment is one ``EXPERIMENTS`` row: spec type, presets, a
realization of ``(spec, i)``, a reduce and a summary; a spec names its
fields' rules to their owner ``core.check_fields``. The one runner
``run`` maps the realization over ``spec.tasks`` and hands the outputs
to the reduce in index order (triple t of the sweep owns realizations
[t R, (t + 1) R); rho and mf read i as the seed index), and the one
writer ``write_outputs`` writes ``to_dict()`` to ``results.json`` and
``table()`` to a CSV. Sub-seeds derive from ``seed_base`` per (triple,
realization, stream), so a spec reproduces its files byte for byte at
any parallelism degree.

All three experiments contaminate their pair as x = b0 + b1 z + r_x and
y = b0' + b2 z + r_y (the spec's ``ContaminationSpec``s); r is bivariate
FBM (sweep, rho) or a binomial cascade (mf), z FGN. With an intercept
every window is centred, which removes b0 and b0', and cumulating and
detrending are linear. So each series of the one table in
``_contaminated`` is a coefficient vector u on the stack (r_x, r_y, z):
x = (1, 0, b1), and its residual on (1, z) is x|z = (1, 0, -a_x), with
a_x the window's OLS slope of r_x on z. The window product of a pair
(u, v) is then u'Gv, G the window's Gram form of the products of
(r_x, r_y, z). The window kernel builds only r_x, r_y and z and returns
a_x and a_y from its force regression; each experiment names the pairs
it reads, and the kind of each surface follows from its pair.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import QGrid, ScaleGrid, check_fields, check_value
from .detrend import DetrendConfig, WindowCovariances, window_products
from .errors import ConfigError, DpxaError, InsufficientScalesError, \
    SizeError
from .fluctuation import KIND_DCCA, KIND_DFA, KIND_DPXA, rho_values, surface
from .generators import (
    BfbmSpec,
    BinomialSpec,
    ContaminationSpec,
    FgnSpec,
    check_length,
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
# most tasks (realizations) of one run: every output stays in memory until
# the reduce, and the pool builds its chunks as tuples; 3.4 times the
# 307,800 of the full sweep
MAX_TASKS = 2 ** 20


# --------------------------------------------------------------------------- #
# specs

def _check_run(spec) -> None:
    """The spec has at most MAX_TASKS tasks, and a scale grid."""
    # the range's stop, since len() of a range overflows past sys.maxsize
    if spec.tasks.stop > MAX_TASKS:
        raise SizeError(f"{spec.tasks.stop} tasks exceed the limit of "
                        f"{MAX_TASKS}")
    spec.scales()


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
        grid = self.hurst_grid
        if not (isinstance(grid, (list, tuple)) and grid and all(
                isinstance(t, (list, tuple)) and len(t) == 3 for t in grid)):
            raise ConfigError("hurst_grid must be a non-empty sequence of "
                              f"(H_rx, H_ry, H_z) triples, got {grid!r}")
        # each object once: the full preset's 9,234 entries are 18 objects
        hurst = {id(h): h for t in grid for h in t}
        hurst = {key: check_value("each Hurst index in hurst_grid", h,
                                  "float", "unit") for key, h in hurst.items()}
        grid = tuple(tuple(hurst[id(h)] for h in t) for t in grid)
        object.__setattr__(self, "hurst_grid", grid)
        for triple in grid:
            if triple[0] > triple[1]:
                raise ConfigError(f"triple {triple}: H_rx must be <= H_ry "
                                  "(symmetry reduction)")
        check_fields(self, positive=("realizations", "length"),
                     natural=("seed_base",), correlation=("corr",))
        check_length(self.length)
        _check_run(self)

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
        check_fields(self, unit=("hurst_x", "hurst_y", "hurst_z"),
                     positive=("length", "seeds"), natural=("seed_base",),
                     correlation=("corr",))
        check_length(self.length)
        _check_run(self)

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
        check_fields(self, unit=("p_x", "p_y", "noise_hurst"),
                     positive=("seeds",), natural=("seed_base",))
        BinomialSpec(self.p_x, self.depth)  # the cascades' depth rules
        _check_run(self)

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
        return {"experiment": "sweep", **asdict(self)}

    def table(self) -> tuple[str, list[str], list]:
        """The CSV's file name, header and rows."""
        rows = [[e["H_rx"], e["H_ry"], e["H_z"], key, e[key]]
                for e in self.triples for key in _EXPONENT_KEYS]
        rows += [[e["H_rx"], e["H_ry"], "", "rel_err", e["rel_err"]]
                 for e in self.relative_errors]
        return "sweep.csv", ["H_rx", "H_ry", "H_z", "statistic", "value"], \
            rows


@dataclass(frozen=True, eq=False)
class RhoComparisonResult:
    spec: RhoSpec
    scales: np.ndarray
    rho_dcca_xy: np.ndarray
    rho_dcca_r: np.ndarray
    rho_dpxa: np.ndarray

    def curves(self) -> dict:
        return {name: getattr(self, name) for name in _RHO_CURVES}

    def to_dict(self) -> dict:
        return {"experiment": "rho", "spec": asdict(self.spec),
                "scales": self.scales, "curves": self.curves()}

    def table(self) -> tuple[str, list[str], list]:
        """The CSV's file name, header and rows."""
        rows = [[int(s), name, v] for name, curve in self.curves().items()
                for s, v in zip(self.scales, curve)]
        return "rho.csv", ["scale", "curve", "rho"], rows


@dataclass(frozen=True, eq=False)
class MfRecoveryResult:
    spec: MfSpec
    orders: np.ndarray
    scales: np.ndarray
    fits: dict           # name -> ScalingFit for the three measured curves
    theory_tau: np.ndarray
    snr: float           # realized std(r_x) / std(slope * z)

    def to_dict(self) -> dict:
        keys = ("h", "h_stderr", "r_squared", "tau", "alpha", "f_alpha")
        curves = {name: {key: getattr(fit, key) for key in keys}
                  for name, fit in self.fits.items()}
        curves["theory"] = {"tau": self.theory_tau}
        return {"experiment": "mf", "spec": asdict(self.spec),
                "orders": self.orders, "scales": self.scales,
                "curves": curves, "snr": self.snr}

    def table(self) -> tuple[str, list[str], list]:
        """The CSV's file name, header and rows."""
        rows = [[q, name, fit.h[i], fit.tau[i], fit.alpha[i], fit.f_alpha[i]]
                for name, fit in self.fits.items()
                for i, q in enumerate(self.orders)]
        rows += [[q, "theory", "", tau, "", ""]
                 for q, tau in zip(self.orders, self.theory_tau)]
        return "mass_exponents.csv", ["q", "curve", "h", "tau", "alpha",
                                      "f_alpha"], rows


# --------------------------------------------------------------------------- #
# the named pairs of every experiment, and the sweep

# the pair of series each experiment reads, by the name of its output
_SWEEP_ROWS = {"h_rx": ("rx", "rx"), "h_ry": ("ry", "ry"), "h_z": ("z", "z"),
               "h_x": ("x", "x"), "h_y": ("y", "y"), "h_xy": ("x", "y"),
               "h_rxry": ("rx", "ry"), "h_xyz": ("x|z", "y|z")}
# rho(u, v) reads the pairs (u, v), (u, u) and (v, v)
_RHO_CURVES = {name: ((u, v), (u, u), (v, v)) for name, (u, v) in (
    ("rho_dcca_xy", ("x", "y")), ("rho_dcca_r", ("rx", "ry")),
    ("rho_dpxa", ("x|z", "y|z")))}
_RHO_PAIRS = tuple(p for sides in _RHO_CURVES.values() for p in sides)
_MF_FITS = {"mfdcca_xy": ("x", "y"), "mfdcca_r": ("rx", "ry"),
            "mfdpxa_xyz": ("x|z", "y|z")}
_EXPONENT_KEYS = tuple(_SWEEP_ROWS)
_REGRESSORS = ("h_rx", "h_ry", "h_z")
_REGRESSION_KEYS = ("intercept", *(f"coef_{key}" for key in _REGRESSORS))
# the products of (rx, ry, z) that one kernel call takes, force z
_BASE_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _contaminated(f2: np.ndarray, slopes: np.ndarray,
                  beta_x: ContaminationSpec, beta_y: ContaminationSpec,
                  pairs) -> np.ndarray:
    """The window products u'Gv of the named ``pairs`` (u, v), one row
    each: G is the Gram form of the ``_BASE_PAIRS`` products ``f2`` (6, W)
    of (rx, ry, z), ``slopes`` (2, W) the OLS slopes a_x, a_y of rx and ry
    on z in each window. The terms G_ij, i <= j, are summed in index
    order, each weighted by u_i v_j + u_j v_i (u_i v_i if i = j). Unlike
    the kernel, which zeroes a residual window that the force explains up
    to rounding, this needs no such rule: z explains no window of r."""
    ax, ay = slopes
    # each series' nonzero coefficients on the stack (rx, ry, z)
    table = {"rx": {0: 1}, "ry": {1: 1}, "z": {2: 1},
             "x": {0: 1, 2: beta_x.slope}, "y": {1: 1, 2: beta_y.slope},
             "x|z": {0: 1, 2: -ax}, "y|z": {1: 1, 2: -ay}}
    # -0.0 is the additive identity of every float, signed zeros included
    out = np.full((len(pairs), f2.shape[1]), -0.0)
    for row, (a, b) in zip(out, pairs):
        weights = {}
        for i, p in table[a].items():
            for j, q in table[b].items():
                ij = (min(i, j), max(i, j))
                weights[ij] = weights[ij] + p * q if ij in weights else p * q
        for ij, w in sorted(weights.items()):
            term = f2[_BASE_PAIRS.index(ij)]
            row += term if np.ndim(w) == 0 and w == 1 else w * term
    return out


def _pair_surfaces(covs: WindowCovariances, spec, pairs, scales: ScaleGrid,
                   orders: QGrid) -> list:
    """The surfaces of the named ``pairs`` of the stack products ``covs``;
    a pair of residuals on z is DPXA, a series with itself DFA."""
    rows = _contaminated(covs.f2, covs.slopes, spec.beta_x, spec.beta_y,
                         pairs)
    return surface(replace(covs, f2=rows), scales, orders, [
        KIND_DPXA if "|" in u + v else KIND_DFA if u == v else KIND_DCCA
        for u, v in pairs])


def _stack_covariances(rx, ry, z, scales: ScaleGrid) -> WindowCovariances:
    """The ``window_products`` of the ``_BASE_PAIRS`` of the stack
    (rx, ry, z) with force z, with the slopes of rx and ry on z."""
    cfg = DetrendConfig()
    assert cfg.with_intercept, "the intercepts cancel only in centred windows"
    return window_products((rx, ry, z), scales.scales, cfg, _BASE_PAIRS,
                           forces=(2,), slopes=(0, 1))


def _contaminated_draw(spec, hurst, path,
                       scales: ScaleGrid) -> WindowCovariances:
    """Draw z ~ FGN(H_z) and (rx, ry) ~ bFBM(H_rx, H_ry, spec.corr) from
    streams 0 and 1 of the seed address (spec.seed_base, *path) and return
    their ``_stack_covariances``."""
    hrx, hry, hz = hurst
    z_seed, r_seed = (derive_seed(spec.seed_base, *path, n) for n in (0, 1))
    z = gen_fgn(FgnSpec(hz, spec.length, z_seed))
    rx, ry = gen_bfbm_increments(BfbmSpec(hrx, hry, spec.corr, spec.length,
                                          r_seed))
    return _stack_covariances(rx, ry, z, scales)


def _sweep_realization(spec: SweepSpec, i: int) -> tuple[float, ...]:
    """Exponents of realization i % R of triple i // R, R realizations."""
    t, real_idx = divmod(i, spec.realizations)
    hrx, hry, hz = spec.hurst_grid[t]
    try:
        grid = spec.scales()
        covs = _contaminated_draw(spec, (hrx, hry, hz), (t, real_idx), grid)
        q2 = QGrid.second_order()
        # the eight q = 2 rows in one least-squares pass
        F = np.concatenate([sf.F for sf in _pair_surfaces(
            covs, spec, tuple(_SWEEP_ROWS.values()), grid, q2)])
        h, _, _ = fit_slopes(grid.scales, F, q2.orders.repeat(len(F)),
                             np.ones(len(grid), dtype=bool))
        return tuple(h.tolist())
    except DpxaError as exc:
        raise type(exc)(
            f"triple ({hrx:g}, {hry:g}, {hz:g}) realization {real_idx}: {exc}"
        ) from exc


def _reduce_sweep(spec: SweepSpec, outputs) -> SweepResult:
    """Average each triple's exponents and fit the recovery regression."""
    per_triple = np.asarray(outputs).reshape(
        len(spec.hurst_grid), spec.realizations,
        len(_EXPONENT_KEYS)).mean(axis=1)

    triples = [{"H_rx": hrx, "H_ry": hry, "H_z": hz,
                **dict(zip(_EXPONENT_KEYS, row.tolist()))}
               for (hrx, hry, hz), row in zip(spec.hurst_grid, per_triple)]

    column = dict(zip(_EXPONENT_KEYS, per_triple.T))
    design = np.column_stack([np.ones(len(triples)),
                              *(column[key] for key in _REGRESSORS)])
    coeffs, _, _, _ = np.linalg.lstsq(design, column["h_xyz"], rcond=None)
    regression = dict(zip(_REGRESSION_KEYS, coeffs.tolist()))

    pairs: dict[tuple[float, float], list[int]] = {}
    for idx, (hrx, hry, _) in enumerate(spec.hurst_grid):
        pairs.setdefault((hrx, hry), []).append(idx)
    relative_errors = []
    for (hrx, hry), idxs in sorted(pairs.items()):
        xyz, rxry = (float(column[key][idxs].mean())
                     for key in ("h_xyz", "h_rxry"))
        relative_errors.append({"H_rx": hrx, "H_ry": hry, "mean_h_xyz": xyz,
                                "mean_h_rxry": rxry,
                                "rel_err": (xyz - rxry) / rxry})
    return SweepResult(spec, triples, regression, relative_errors)


# --------------------------------------------------------------------------- #
# coefficient comparison

def _rho_realization(spec: RhoSpec, seed_idx: int) -> np.ndarray:
    scales = spec.scales()
    covs = _contaminated_draw(spec, (spec.hurst_x, spec.hurst_y,
                                     spec.hurst_z), (seed_idx,), scales)
    # the slopes vary by window, so the rows are per window before their
    # per-scale means
    means = covs.sums(_contaminated(covs.f2, covs.slopes, spec.beta_x,
                                    spec.beta_y, _RHO_PAIRS)) / covs.windows
    return np.stack([rho_values(means, [_RHO_PAIRS.index(p) for p in sides],
                                scales) for sides in _RHO_CURVES.values()])


def _reduce_rho(spec: RhoSpec, outputs) -> RhoComparisonResult:
    """Seed-averaged DCCA/DPXA coefficient curves."""
    return RhoComparisonResult(spec, spec.scales().scales.copy(),
                               **dict(zip(_RHO_CURVES,
                                          np.mean(outputs, axis=0))))


# --------------------------------------------------------------------------- #
# multifractal recovery

def _averaged_fit(orders: QGrid, fits) -> ScalingFit:
    h, stderr, r2 = (np.mean([getattr(f, key) for f in fits], axis=0)
                     for key in ("h", "h_stderr", "r_squared"))
    fit = ScalingFit(orders, h, stderr, r2, fits[0].fit_range)
    return legendre(mass_exponents(fit))


def _mf_realization(spec: MfSpec, seed_idx: int) -> tuple:
    """The MF-DCCA(x, y), MF-DCCA(rx, ry) and MF-DPXA(x|z, y|z) fits of the
    cascades masked by the noise of seed seed_idx, and the realized SNR."""
    scales, orders = spec.scales(), QGrid.default()
    rx = gen_binomial(BinomialSpec(spec.p_x, spec.depth))
    ry = gen_binomial(BinomialSpec(spec.p_y, spec.depth))
    z = gen_fgn(FgnSpec(spec.noise_hurst, 2 ** spec.depth,
                        derive_seed(spec.seed_base, seed_idx, 0)))
    fits = [fit_exponent(sf) for sf in _pair_surfaces(
        _stack_covariances(rx, ry, z, scales), spec,
        tuple(_MF_FITS.values()), scales, orders)]
    noise_std = float(np.std(spec.beta_x.slope * z.values))
    snr = float(np.std(rx.values) / noise_std) if noise_std > 0 else float("inf")
    return (*fits, snr)


def _reduce_mf(spec: MfSpec, outputs) -> MfRecoveryResult:
    """Seed-averaged fits and SNR, and the closed-form mass exponents."""
    orders = QGrid.default()
    *per_seed, snr = zip(*outputs)
    fits = dict(zip(_MF_FITS, per_seed))
    # the cascades are the same in every realization
    clean = legendre(mass_exponents(fits.pop("mfdcca_r")[0]))
    fits = {name: _averaged_fit(orders, f) for name, f in fits.items()}
    fits["mfdcca_r"] = clean
    theory_tau = joint_binomial_mass_exponent(orders.orders, spec.p_x,
                                              spec.p_y)
    return MfRecoveryResult(spec, orders.orders.copy(),
                            spec.scales().scales.copy(), fits, theory_tau,
                            float(np.mean(snr)))


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
    for key, expected in zip(_REGRESSION_KEYS, SWEEP_EXPECTED_COEFFS):
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


def write_outputs(result, outdir) -> None:
    """Write ``results.json`` from the result's ``to_dict()`` and its CSV
    from ``table()`` into outdir."""
    outdir = Path(outdir)
    write_json(outdir / "results.json", result.to_dict())
    name, header, rows = result.table()
    write_table_csv(outdir / name, header, rows)


# --------------------------------------------------------------------------- #
# the experiments by name and the one runner

@dataclass(frozen=True)
class Experiment:
    """One experiment: ``run`` maps the realization over ``spec.tasks``
    and hands the outputs, in index order, to the reduce."""

    spec: type
    presets: dict
    realization: Callable
    reduce: Callable
    summary: Callable


# the one table through which the CLI reaches an experiment
EXPERIMENTS = {
    "sweep": Experiment(SweepSpec, SWEEP_PRESETS, _sweep_realization,
                        _reduce_sweep, summarize_sweep),
    "rho": Experiment(RhoSpec, RHO_PRESETS, _rho_realization, _reduce_rho,
                      summarize_rho),
    "mf": Experiment(MfSpec, MF_PRESETS, _mf_realization, _reduce_mf,
                     summarize_mf),
}


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


def run(experiment: Experiment, spec, jobs: int = 1):
    """Map the experiment's realization over ``spec.tasks`` on up to
    ``jobs`` workers and reduce the outputs, in index order."""
    return experiment.reduce(spec, _map_tasks(
        partial(experiment.realization, spec), spec.tasks, jobs))


# run_sweep(spec, jobs=1) and the others: ``run`` of one row
run_sweep = partial(run, EXPERIMENTS["sweep"])
run_rho_comparison = partial(run, EXPERIMENTS["rho"])
run_mf_recovery = partial(run, EXPERIMENTS["mf"])
