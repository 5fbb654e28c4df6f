"""Command-line interface: `dpxa gen|analyze|experiment`.

Inputs and outputs are headered CSV (one series per column) plus JSON
sidecars that embed the complete effective configuration and seed, so any
output file is reproducible from its own metadata. Exit codes: 0 success,
2 usage, 3 ingestion, 4 configuration (a bad flag or spec value, or an
--out path that cannot be written), 5 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments
from .core import DEFAULT_MIN_SCALE, DEFAULT_SCALE_COUNT, QGrid, ScaleGrid, \
    as_series
from .detrend import DetrendConfig, ForceMatrix, MOVING_AVERAGE, POLYNOMIAL
from .errors import ConfigError, DpxaError, IngestionError
from .fluctuation import fluctuation_dcca, fluctuation_dfa, fluctuation_dpxa, \
    rho_curve, rho_dcca
from .generators import (
    BfbmSpec,
    BinomialSpec,
    ContaminationSpec,
    FgnSpec,
    gen_bfbm_increments,
    gen_binomial,
    gen_fgn,
)
from .io import read_series_csv, write_json, write_series_csv, write_table_csv
from .scaling import full_fit

ANALYZE_METHODS = ("dfa", "dcca", "dpxa", "mfdfa", "mfdcca", "mfdpxa",
                   "rho-dcca", "rho-dpxa")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpxa",
        description="Detrended partial cross-correlation analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic series")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    g_fgn = gen_sub.add_parser("fgn", help="fractional Gaussian noise")
    g_fgn.add_argument("--hurst", type=float, required=True)
    g_fgn.add_argument("--length", type=int, required=True)
    g_fgn.add_argument("--seed", type=int, default=0)
    g_fgn.add_argument("--out", required=True, help="output CSV path")

    g_bfbm = gen_sub.add_parser("bfbm", help="bivariate FBM increments")
    g_bfbm.add_argument("--hx", type=float, required=True)
    g_bfbm.add_argument("--hy", type=float, required=True)
    g_bfbm.add_argument("--rho", type=float, required=True,
                        help="instantaneous cross-correlation")
    g_bfbm.add_argument("--length", type=int, required=True)
    g_bfbm.add_argument("--seed", type=int, default=0)
    g_bfbm.add_argument("--out", required=True)

    g_bin = gen_sub.add_parser("binomial", help="binomial cascade measure")
    g_bin.add_argument("--p", type=float, required=True)
    g_bin.add_argument("--depth", type=int, required=True,
                       help="series length is 2^depth")
    g_bin.add_argument("--out", required=True)

    ana = sub.add_parser("analyze", help="run an analysis on CSV columns")
    ana.add_argument("method", choices=ANALYZE_METHODS)
    ana.add_argument("input", help="headered CSV file")
    ana.add_argument("--col", help="column for single-series methods")
    ana.add_argument("--x", help="first series column")
    ana.add_argument("--y", help="second series column")
    ana.add_argument("--z", action="append", default=[],
                     help="external force column (repeatable)")
    ana.add_argument("--s-min", type=int, default=DEFAULT_MIN_SCALE)
    ana.add_argument("--s-max", type=int, default=None)
    ana.add_argument("--s-count", type=int, default=DEFAULT_SCALE_COUNT)
    ana.add_argument("--dyadic", action="store_true",
                     help="use a powers-of-two scale grid")
    ana.add_argument("--q-min", type=float, default=-4.0)
    ana.add_argument("--q-max", type=float, default=4.0)
    ana.add_argument("--q-count", type=int, default=17)
    ana.add_argument("--detrend", choices=(POLYNOMIAL, MOVING_AVERAGE),
                     default=POLYNOMIAL)
    ana.add_argument("--poly-order", type=int, default=1)
    ana.add_argument("--no-intercept", action="store_true",
                     help="regress on the forces without an intercept")
    ana.add_argument("--fit-min", type=int, default=None,
                     help="narrow the log-log fit range")
    ana.add_argument("--fit-max", type=int, default=None)
    ana.add_argument("--out", required=True, help="output path prefix")

    exp = sub.add_parser("experiment", help="run a validation experiment")
    exp.add_argument("name", choices=list(experiments.EXPERIMENTS))
    group = exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named preset configuration")
    group.add_argument("--spec", help="JSON spec file")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    return parser


# --------------------------------------------------------------------------- #
# gen

def _cmd_gen(args) -> int:
    out = Path(args.out)
    if args.kind == "fgn":
        spec = FgnSpec(args.hurst, args.length, args.seed)
        series = gen_fgn(spec)
        write_series_csv(out, {"fgn": series.values})
    elif args.kind == "bfbm":
        spec = BfbmSpec(args.hx, args.hy, args.rho, args.length, args.seed)
        rx, ry = gen_bfbm_increments(spec)
        write_series_csv(out, {"x": rx.values, "y": ry.values})
    else:
        spec = BinomialSpec(args.p, args.depth)
        series = gen_binomial(spec)
        write_series_csv(out, {"binomial": series.values})
    write_json(out.with_suffix(out.suffix + ".json"),
               {"kind": args.kind, **dataclasses.asdict(spec)})
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------- #
# analyze

def _pick_column(columns: dict, name: str | None, flag: str) -> np.ndarray:
    if name is None:
        raise ConfigError(f"method requires {flag}")
    if name not in columns:
        raise IngestionError(
            f"column {name!r} not found; available: {list(columns)}"
        )
    return columns[name]


_SINGLE_METHODS = ("dfa", "mfdfa")
_FORCED_METHODS = ("dpxa", "mfdpxa", "rho-dpxa")


def _check_flags(args) -> None:
    """Reject the flags the method does not use."""
    method = args.method
    unused = [flag for flag, given, used in (
        ("--y", args.y is not None, method not in _SINGLE_METHODS),
        ("--z", bool(args.z), method in _FORCED_METHODS),
        ("--fit-min", args.fit_min is not None, not method.startswith("rho")),
        ("--fit-max", args.fit_max is not None, not method.startswith("rho")),
    ) if given and not used]
    if unused:
        raise ConfigError(f"method {method!r} does not use "
                          f"{', '.join(unused)}")


def _analysis_inputs(args, columns):
    method = args.method
    if method in _SINGLE_METHODS:
        x = _pick_column(columns, args.col or args.x, "--col")
        y = None
    else:
        x = _pick_column(columns, args.x, "--x")
        y = _pick_column(columns, args.y, "--y")
    forces = None
    if method in _FORCED_METHODS:
        if not args.z:
            raise ConfigError(f"method {method!r} requires at least one --z")
        forces = ForceMatrix.from_series(
            [_pick_column(columns, name, "--z") for name in args.z]
        )
    return x, y, forces


def _grids(args, length: int) -> tuple[ScaleGrid, QGrid]:
    if args.dyadic:
        scales = ScaleGrid.dyadic(length, s_min=args.s_min, s_max=args.s_max)
    else:
        scales = ScaleGrid.default(length, count=args.s_count,
                                   s_min=args.s_min, s_max=args.s_max)
    if args.method.startswith("mf"):
        orders = QGrid.default(args.q_min, args.q_max, args.q_count)
    else:
        orders = QGrid.second_order()
    return scales, orders


def _cmd_analyze(args) -> int:
    _check_flags(args)
    columns = read_series_csv(args.input)
    x, y, forces = _analysis_inputs(args, columns)
    series_x = as_series(x)
    scales, orders = _grids(args, len(series_x))
    cfg = DetrendConfig(method=args.detrend, poly_order=args.poly_order,
                        with_intercept=not args.no_intercept)
    fit_range = None
    if args.fit_min is not None or args.fit_max is not None:
        fit_range = (
            int(scales.scales.min()) if args.fit_min is None else args.fit_min,
            int(scales.scales.max()) if args.fit_max is None else args.fit_max,
        )

    prefix = Path(args.out)
    echo = {
        "method": args.method,
        "input": str(args.input),
        "columns": {"x": args.col or args.x, "y": args.y, "z": args.z},
        "scales": scales.scales,
        "orders": orders.orders,
        "detrend": {"method": cfg.method, "poly_order": cfg.poly_order,
                    "with_intercept": cfg.with_intercept},
        "fit_range": fit_range,
    }

    if args.method.startswith("rho"):
        if args.method == "rho-dpxa":
            curve = rho_curve(series_x, y, forces, scales, cfg)
        else:
            curve = rho_dcca(series_x, y, scales, cfg)
        write_table_csv(f"{prefix}_rho.csv", ["scale", "rho"],
                        list(zip(scales.scales.tolist(), curve.rho)))
        write_json(f"{prefix}_rho.json", {"config": echo, "kind": curve.kind,
                                          "rho": curve.rho})
        print(f"wrote {prefix}_rho.csv")
        return 0

    if args.method in ("dfa", "mfdfa"):
        surface = fluctuation_dfa(series_x, scales, orders, cfg)
    elif args.method in ("dcca", "mfdcca"):
        surface = fluctuation_dcca(series_x, y, scales, orders, cfg)
    else:
        surface = fluctuation_dpxa(series_x, y, forces, scales, orders, cfg)

    fit = full_fit(surface, fit_range)

    header = ["scale", "cov2"] + [f"F_q{q:g}" for q in orders.orders]
    rows = [[int(s), surface.cov2[j]] + [surface.F[i, j]
                                         for i in range(len(orders))]
            for j, s in enumerate(scales.scales)]
    write_table_csv(f"{prefix}_fluct.csv", header, rows)
    payload = {
        "config": echo,
        "kind": surface.kind,
        "fit": {
            "q": fit.orders.orders,
            "h": fit.h,
            "h_stderr": fit.h_stderr,
            "r_squared": fit.r_squared,
            "tau": fit.tau,
            "alpha": fit.alpha,
            "f_alpha": fit.f_alpha,
            "fit_range": list(fit.fit_range),
        },
    }
    write_json(f"{prefix}_fit.json", payload)
    h2 = fit.h[np.argmin(np.abs(orders.orders - 2.0))]
    print(f"wrote {prefix}_fluct.csv and {prefix}_fit.json (h(2) = {h2:.4f})")
    return 0


# --------------------------------------------------------------------------- #
# experiment

def _number(value, kind):
    if isinstance(value, (bool, str)) or kind(value) != value:
        raise ValueError(value)
    return kind(value)


def _as_beta(value) -> ContaminationSpec:
    if not isinstance(value, dict) or set(value) != {"intercept", "slope"}:
        raise ValueError(value)
    return ContaminationSpec(*(_number(value[k], float)
                               for k in ("intercept", "slope")))


def _as_grid(value) -> tuple:
    if not value or any(len(t) != 3 for t in value):
        raise ValueError(value)
    return tuple(tuple(_number(v, float) for v in t) for t in value)


# spec field annotation -> (converter of its JSON value, what it expects)
_CONVERTERS = {
    "int": (lambda v: _number(v, int), "an integer"),
    "float": (lambda v: _number(v, float), "a number"),
    "ContaminationSpec": (_as_beta, "{'intercept': .., 'slope': ..}"),
    "tuple[tuple[float, float, float], ...]":
        (_as_grid, "a non-empty list of [H_rx, H_ry, H_z] triples"),
}


def _parse_spec_file(cls: type, path: str):
    """Build a ``cls`` spec from a JSON object whose keys are the spec's
    fields; every problem found is listed in one ConfigError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IngestionError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise IngestionError(f"spec file {path} is not valid JSON: {exc}") \
            from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"spec file {path} must hold a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    issues = [f"unknown key {key!r}; expected one of {sorted(fields)}"
              for key in raw if key not in fields]
    for key, field in fields.items():
        if key not in raw:
            if field.default is dataclasses.MISSING:
                issues.append(f"missing required key {key!r}")
            continue
        convert, expected = _CONVERTERS[field.type]
        try:
            values[key] = convert(raw[key])
        except (DpxaError, TypeError, ValueError, OverflowError):
            issues.append(f"key {key!r}: cannot interpret {raw[key]!r} as "
                          f"{expected}")
    spec = None
    if not issues:
        try:
            spec = cls(**values)
        except DpxaError as exc:
            issues.append(str(exc))
    if issues:
        raise ConfigError("invalid experiment spec:\n  "
                          + "\n  ".join(issues))
    return spec


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    spec_type, presets, run, write, summarize = \
        experiments.EXPERIMENTS[args.name]
    if args.preset is not None:
        if args.preset not in presets:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {list(presets)}"
            )
        spec = presets[args.preset]
    else:
        spec = _parse_spec_file(spec_type, args.spec)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = run(spec, jobs=args.jobs)
    write(result, outdir)
    summary = summarize(result)
    elapsed = time.perf_counter() - started
    summary = f"{summary}\nelapsed: {elapsed:.1f} s (jobs={args.jobs})"
    (outdir / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)
    return 0


# --------------------------------------------------------------------------- #

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_experiment(args)
    except DpxaError as exc:
        print(f"dpxa: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # inputs map their own read errors, so a file error here is a
        # write under --out: a missing or non-directory parent, no access
        if exc.filename is None:
            raise
        print(f"dpxa: error: cannot write {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
