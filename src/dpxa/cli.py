"""Command-line interface: `dpxa gen|analyze|experiment`.

Inputs and outputs are headered CSV (one series per column) plus JSON
sidecars that embed the complete effective configuration and seed, so any
output file is reproducible from its own metadata. Exit codes: 0 success,
2 usage, 3 ingestion, 4 configuration (a bad flag or spec value, a flag
that the method does not read, or an --out path that cannot be written),
5 numerical degeneracy. An experiment's --spec file holds the spec
constructor's keys, as a preset and the ``spec`` block of any results.json
do; ``experiments.spec_from`` judges the keys, the constructor every value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import experiments
from .core import QGrid, ScaleGrid, TimeSeries, as_series
from .detrend import DetrendConfig, ForceMatrix, MOVING_AVERAGE, POLYNOMIAL
from .errors import ConfigError, DataError, DpxaError, IngestionError
from .fluctuation import KIND_DCCA, KIND_DFA, KIND_DPXA, fluctuation_dpxa, \
    rho_curve
from .generators import (
    BfbmSpec,
    BinomialSpec,
    FgnSpec,
    gen_bfbm_increments,
    gen_binomial,
    gen_fgn,
)
from .io import read_series_csv, write_json, write_table_csv
from .scaling import full_fit

# method -> (kind, multifractal, rho): the kind also names the columns the
# method reads, an mf method reads the --q-* grid, and a rho method writes
# rho(s) in place of the fitted F(q, s)
ANALYZE_METHODS = {
    "dfa": (KIND_DFA, False, False),
    "dcca": (KIND_DCCA, False, False),
    "dpxa": (KIND_DPXA, False, False),
    "mfdfa": (KIND_DFA, True, False),
    "mfdcca": (KIND_DCCA, True, False),
    "mfdpxa": (KIND_DPXA, True, False),
    "rho-dcca": (KIND_DCCA, False, True),
    "rho-dpxa": (KIND_DPXA, False, True),
}
_COLUMNS = {KIND_DFA: "--col (or --x)", KIND_DCCA: "--x and --y",
            KIND_DPXA: "--x, --y and each --z, and take --no-intercept"}


def _method_help() -> str:
    def names(field, value=True):
        return "/".join(m for m, row in ANALYZE_METHODS.items()
                        if row[field] == value)
    return "; ".join(f"{names(0, kind)} read {columns}"
                     for kind, columns in _COLUMNS.items()) + \
        f". --q-* apply to {names(1)} only, --fit-* to all but {names(2)}"


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
    ana.add_argument("method", choices=ANALYZE_METHODS, help=_method_help())
    ana.add_argument("input", help="headered CSV file")
    ana.add_argument("--col", help="column for single-series methods")
    ana.add_argument("--x", help="first series column")
    ana.add_argument("--y", help="second series column")
    ana.add_argument("--z", action="append", default=[],
                     help="external force column (repeatable)")
    # tuning flags default to None: ScaleGrid, QGrid, DetrendConfig own them
    ana.add_argument("--s-min", type=int)
    ana.add_argument("--s-max", type=int)
    ana.add_argument("--s-count", type=int)
    ana.add_argument("--dyadic", action="store_true",
                     help="use a powers-of-two scale grid")
    ana.add_argument("--q-min", type=float)
    ana.add_argument("--q-max", type=float)
    ana.add_argument("--q-count", type=int)
    ana.add_argument("--detrend", choices=(POLYNOMIAL, MOVING_AVERAGE))
    ana.add_argument("--poly-order", type=int)
    ana.add_argument("--no-intercept", action="store_true",
                     help="regress on the forces without an intercept")
    ana.add_argument("--fit-min", type=int,
                     help="narrow the log-log fit range")
    ana.add_argument("--fit-max", type=int)
    ana.add_argument("--out", required=True, help="output path prefix")

    exp = sub.add_parser("experiment", help="run a validation experiment")
    exp.add_argument("name", choices=list(experiments.EXPERIMENTS))
    group = exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="named preset configuration")
    group.add_argument("--spec", help="JSON file of the spec's keys, as a "
                       "preset or the spec block of a results.json holds")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--jobs", type=int, default=experiments.usable_cpus(),
                     help="worker processes, at most the usable CPUs "
                     "(default: all of them)")

    return parser


# --------------------------------------------------------------------------- #
# gen

def _cmd_gen(args) -> int:
    out = Path(args.out)
    if args.kind == "fgn":
        spec = FgnSpec(args.hurst, args.length, args.seed)
        names, series = ["fgn"], [gen_fgn(spec)]
    elif args.kind == "bfbm":
        spec = BfbmSpec(args.hx, args.hy, args.rho, args.length, args.seed)
        names, series = ["x", "y"], gen_bfbm_increments(spec)
    else:
        spec = BinomialSpec(args.p, args.depth)
        names, series = ["binomial"], [gen_binomial(spec)]
    # Python floats format in half the time numpy scalars take
    write_table_csv(out, names, zip(*(s.values.tolist() for s in series)))
    write_json(out.with_suffix(out.suffix + ".json"),
               {"kind": args.kind, **dataclasses.asdict(spec)})
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------- #
# analyze

def _pick_column(columns: dict, name: str | None, flag: str,
                 method: str) -> TimeSeries:
    """The validated series of column ``name``; an invalid one is named."""
    if name is None:
        raise ConfigError(f"method {method!r} requires {flag}")
    if name not in columns:
        raise IngestionError(
            f"column {name!r} not found; available: {list(columns)}"
        )
    try:
        return as_series(columns[name])
    except DataError as exc:
        raise type(exc)(f"column {name!r}: {exc}") from None


def _check_flags(args, kind: str, multifractal: bool, rho: bool) -> None:
    """Reject every given flag that the method's row does not read."""
    single = kind == KIND_DFA
    unused = [flag for flag, value, used in (
        ("--col", args.col, single),
        ("--x with --col", args.x, not single or args.col is None),
        ("--y", args.y, not single),
        ("--z", args.z or None, kind == KIND_DPXA),
        ("--no-intercept", args.no_intercept or None, kind == KIND_DPXA),
        ("--q-min", args.q_min, multifractal),
        ("--q-max", args.q_max, multifractal),
        ("--q-count", args.q_count, multifractal),
        ("--fit-min", args.fit_min, not rho),
        ("--fit-max", args.fit_max, not rho),
        ("--s-count with --dyadic", args.s_count, not args.dyadic),
        (f"--poly-order with --detrend {args.detrend}", args.poly_order,
         (args.detrend or DetrendConfig.method) == POLYNOMIAL),
    ) if value is not None and not used]
    if unused:
        raise ConfigError(f"method {args.method!r} does not use "
                          f"{', '.join(unused)}")


def _given(**values) -> dict:
    # only the flags given, so that the library's defaults fill the rest
    return {name: value for name, value in values.items() if value is not None}


def _cmd_analyze(args) -> int:
    method = args.method
    kind, multifractal, rho = ANALYZE_METHODS[method]
    _check_flags(args, kind, multifractal, rho)
    columns = read_series_csv(args.input)
    names = {"x": args.col or args.x, "y": args.y, "z": args.z}
    x = _pick_column(columns, names["x"],
                     "--col" if kind == KIND_DFA else "--x", method)
    y = None if kind == KIND_DFA else \
        _pick_column(columns, args.y, "--y", method)
    # no --z on DPXA is the name None, which _pick_column rejects
    forces = None if kind != KIND_DPXA else ForceMatrix(
        [_pick_column(columns, name, "--z", method)
         for name in args.z or [None]])
    # DFA is the pair (x, x); one object passed twice is one stack row
    y = x if y is None else y
    # --s-count is None beside --dyadic, which the check enforces
    grid = ScaleGrid.dyadic if args.dyadic else ScaleGrid.default
    scales = grid(len(x), **_given(
        count=args.s_count, s_min=args.s_min, s_max=args.s_max))
    orders = QGrid.default(**_given(
        q_min=args.q_min, q_max=args.q_max, count=args.q_count)) \
        if multifractal else QGrid.second_order()
    cfg = DetrendConfig(**_given(method=args.detrend,
                                 poly_order=args.poly_order),
                        with_intercept=not args.no_intercept)
    fit_range = None
    if args.fit_min is not None or args.fit_max is not None:
        fit_range = (
            int(scales.scales.min()) if args.fit_min is None else args.fit_min,
            int(scales.scales.max()) if args.fit_max is None else args.fit_max,
        )

    prefix = Path(args.out)
    echo = {
        "method": method,
        "input": str(args.input),
        "columns": names,
        "scales": scales.scales,
        "orders": orders.orders,
        "detrend": {"method": cfg.method, "poly_order": cfg.poly_order,
                    "with_intercept": cfg.with_intercept},
        "fit_range": fit_range,
    }

    if rho:
        curve = rho_curve(x, y, forces, scales, cfg)
        write_table_csv(f"{prefix}_rho.csv", ["scale", "rho"],
                        list(zip(scales.scales.tolist(), curve.rho)))
        write_json(f"{prefix}_rho.json", {"config": echo, "kind": curve.kind,
                                          "rho": curve.rho})
        print(f"wrote {prefix}_rho.csv")
        return 0

    surface = fluctuation_dpxa(x, y, forces, scales, orders, cfg,
                               kind=kind)
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
    j = int(np.argmin(np.abs(orders.orders - 2.0)))
    print(f"wrote {prefix}_fluct.csv and {prefix}_fit.json "
          f"(h({orders.orders[j]:g}) = {fit.h[j]:.4f})")
    return 0


# --------------------------------------------------------------------------- #
# experiment

def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"spec file holds key {key!r} twice")
        out[key] = value
    return out


def _parse_spec_file(cls: type, path: str):
    """The ``cls`` spec a JSON file holds, by ``experiments.spec_from``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"),
                         object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise IngestionError(f"cannot read spec file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestionError(f"spec file {path} is not valid JSON: {exc}") \
            from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"spec file {path} must hold a JSON object")
    return experiments.spec_from(cls, raw)


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    experiment = experiments.EXPERIMENTS[args.name]
    presets = experiment.presets
    if args.preset is not None:
        if args.preset not in presets:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: {list(presets)}"
            )
        spec = presets[args.preset]
    else:
        spec = _parse_spec_file(experiment.spec, args.spec)

    outdir = Path(args.out)
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = experiments.run(experiment, spec, jobs=args.jobs)
        experiments.write_outputs(result, outdir)
    finally:
        # a failed run leaves none of the empty directories it made behind
        for made in created:
            if any(made.iterdir()):
                break
            made.rmdir()
    summary = experiments.render(*experiment.checks(result))
    elapsed = time.perf_counter() - started
    used = experiments.workers(args.jobs, len(spec.tasks))
    summary = (f"{summary}\nelapsed: {elapsed:.1f} s (jobs={args.jobs}, "
               f"workers={used})")
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
