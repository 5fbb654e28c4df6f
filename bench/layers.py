"""Layer-by-layer and preset timings of the dpxa package.

Run from the root of a dpxa checkout; the package is imported from its
``src/``:

    python3 bench/layers.py --out BENCH_<n>.json
    python3 bench/layers.py --quick

Each layer is a public function called on inputs made once from fixed
seeds, at N = 2^14 and 2^16 on the default 20-scale grid: the generators,
the window stage of the sweep's stack (rx, ry, z with the slopes of rx and
ry on z) and of the analyze stack (x, y, z with the DCCA and DPXA pairs),
``surface`` over 17 q, ``full_fit``, one sweep, one rho and one mf
realization through ``run_sweep``, ``run_rho_comparison`` and
``run_mf_recovery`` (cascade depth log2 N), and the CSV and JSON readers
and writers. One untimed call comes first, then ``--repeats`` timed ones.
A layer's median moves between processes of one tree by as much as a
change under test would move it, so the layers are timed in 3 fresh
processes. After each of them every preset of every experiment but
``full`` runs once as a fresh ``python -m dpxa.cli experiment`` process
at ``--jobs`` 1 and 2, so the layers and presets of a round share one
stretch of machine load. The record gives for each layer row the median
of the per-process medians and the lowest and highest of them, in ms,
and for each preset the median, lowest and highest wall time of the 3
rounds, in s. ``--quick`` times the layers once at N = 2^10 in this
process and runs no preset. The JSON record, which also names the host
and counts the lines of each module under ``src/dpxa``, goes to standard
output and to ``--out`` when given.

Two trees' records compare only when the trees ran in turn: one record
of each compares two stretches of machine load, so alternate the script
on a checkout of each tree several times and compare the rows pair by
pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dpxa import (BfbmSpec, ContaminationSpec, DetrendConfig, FgnSpec,  # noqa: E402
                  MfSpec, QGrid, RhoSpec, ScaleGrid, SweepSpec, full_fit,
                  gen_bfbm_increments, gen_fgn, run_mf_recovery,
                  run_rho_comparison, run_sweep)
from dpxa.experiments import EXPERIMENTS, usable_cpus  # noqa: E402
from dpxa.detrend import window_products  # noqa: E402
from dpxa.fluctuation import KIND_DCCA, KIND_DPXA, surface  # noqa: E402
from dpxa.io import read_series_csv, write_json, write_table_csv  # noqa: E402

BETAS = ContaminationSpec(intercept=2.0, slope=3.0)
# the products the sweep and rho realizations take of (rx, ry, z)
SWEEP_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# DCCA of (x, y) and DPXA of (x|z, y|z) on the stack (x, y, z)
ANALYZE_PAIRS = ((0, 1), (3, 4))


def timed(fn, repeats: int) -> float:
    """The median in ms of ``repeats`` calls of fn after an untimed one."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return float(np.median(samples))


def layers(n: int, repeats: int, workdir: Path) -> dict:
    """The median time in ms of every layer at length n."""
    grid = ScaleGrid.default(n)
    cfg = DetrendConfig()
    z = gen_fgn(FgnSpec(0.5, n, 1))
    rx, ry = gen_bfbm_increments(BfbmSpec(0.3, 0.7, 0.5, n, 2))
    x = 2.0 + 3.0 * z.values + rx.values
    y = 2.0 + 3.0 * z.values + ry.values
    analyze = window_products((x, y, z), grid.scales, cfg, ANALYZE_PAIRS,
                              forces=(2,))
    surfaces = surface(analyze, grid, QGrid.default(),
                       (KIND_DCCA, KIND_DPXA))
    csv_path, json_path = workdir / "layers.csv", workdir / "layers.json"
    columns = [x.tolist(), y.tolist(), z.values.tolist()]
    write_table_csv(csv_path, ["x", "y", "z"], zip(*columns))
    sweep = SweepSpec(((0.3, 0.7, 0.5),), realizations=1, length=n,
                      beta_x=BETAS, beta_y=BETAS)
    rho = RhoSpec(corr=0.7, hurst_x=0.1, hurst_y=0.1, hurst_z=0.95,
                  length=n, seeds=1, beta_x=BETAS, beta_y=BETAS)
    mf = MfSpec(p_x=0.3, p_y=0.4, depth=n.bit_length() - 1, seeds=1,
                beta_x=BETAS, beta_y=BETAS)
    cases = {
        "gen_fgn": lambda: gen_fgn(FgnSpec(0.5, n, 1)),
        "gen_bfbm_increments": lambda: gen_bfbm_increments(
            BfbmSpec(0.3, 0.7, 0.5, n, 2)),
        "window_sweep": lambda: window_products(
            (rx, ry, z), grid.scales, cfg, SWEEP_PAIRS, forces=(2,),
            slopes=(0, 1)),
        "window_analyze": lambda: window_products(
            (x, y, z), grid.scales, cfg, ANALYZE_PAIRS, forces=(2,)),
        "surface_17q_2pairs": lambda: surface(
            analyze, grid, QGrid.default(), (KIND_DCCA, KIND_DPXA)),
        "full_fit": lambda: full_fit(surfaces[1]),
        "sweep_realization": lambda: run_sweep(sweep),
        "rho_realization": lambda: run_rho_comparison(rho),
        "mf_realization": lambda: run_mf_recovery(mf),
        "read_series_csv_3col": lambda: read_series_csv(csv_path),
        "write_table_csv_3col": lambda: write_table_csv(
            csv_path, ["x", "y", "z"], zip(*columns)),
        "write_json_surfaces": lambda: write_json(
            json_path, {kind: {"F": sf.F, "cov2": sf.cov2}
                        for kind, sf in zip((KIND_DCCA, KIND_DPXA),
                                            surfaces)}),
    }
    return {name: timed(fn, repeats) for name, fn in cases.items()}


def all_layers(lengths, repeats: int, workdir) -> dict:
    """``layers`` at each length, keyed by the length as a string."""
    with warnings.catch_warnings():
        # the fits of these inputs may warn; the timings are what counts
        warnings.simplefilter("ignore")
        return {str(n): layers(n, repeats, Path(workdir)) for n in lengths}


def layers_process(lengths, repeats: int, workdir: Path) -> dict:
    """``all_layers`` timed in a fresh process."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from layers import all_layers; print(json.dumps(all_layers("
            "json.loads(sys.argv[2]), int(sys.argv[3]), sys.argv[4])))")
    return json.loads(subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "bench"),
         json.dumps(list(lengths)), str(repeats), str(workdir)],
        check=True, capture_output=True, text=True).stdout)


def spread(samples, unit: str) -> dict:
    """The median, lowest and highest of ``samples``, in ``unit``."""
    return {f"median_{unit}": round(float(np.median(samples)), 4),
            f"lowest_{unit}": round(min(samples), 4),
            f"highest_{unit}": round(max(samples), 4)}


def preset_round(workdir: Path) -> dict:
    """The wall time in s of one run of each preset at --jobs 1 and 2,
    each a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    record = {}
    for name, experiment in EXPERIMENTS.items():
        for preset in experiment.presets:
            if preset == "full":
                continue
            for jobs in (1, 2):
                start = time.perf_counter()
                subprocess.run(
                    [sys.executable, "-m", "dpxa.cli", "experiment", name,
                     "--preset", preset, "--jobs", str(jobs),
                     "--out", str(workdir / f"{name}-{preset}")],
                    cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
                record[f"{name} {preset} --jobs {jobs}"] = \
                    time.perf_counter() - start
    return record


def source_lines() -> dict:
    """Lines of each module of the package, and their total."""
    counts = {path.stem: len(path.read_text().splitlines())
              for path in sorted((ROOT / "src" / "dpxa").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host() -> dict:
    return {"cpus": os.cpu_count(), "usable_cpus": usable_cpus(),
            "cpu_model": cpu_model(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one repeat at N = 2^10 and no presets")
    parser.add_argument("--repeats", type=int, default=9,
                        help="timed calls per layer and process")
    parser.add_argument("--out", help="also write the record here")
    args = parser.parse_args(argv)
    lengths = (2 ** 10,) if args.quick else (2 ** 14, 2 ** 16)
    repeats = 1 if args.quick else args.repeats
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        if args.quick:
            runs, rounds = [all_layers(lengths, repeats, workdir)], []
        else:
            runs, rounds = [], []
            for _ in range(3):
                runs.append(layers_process(lengths, repeats, workdir))
                rounds.append(preset_round(workdir))
        record = {
            "host": host(),
            "src_lines": source_lines(),
            "quick": args.quick,
            "repeats": repeats,
            "processes": len(runs),
            "layers": {n: {name: spread([run[n][name] for run in runs], "ms")
                           for name in row}
                       for n, row in runs[0].items()},
            "presets": {key: spread([run[key] for run in rounds], "s")
                        for key in (rounds[0] if rounds else {})},
        }
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
