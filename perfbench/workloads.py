"""The benchmark's three workloads: inputs made from the seed, the CLI
arguments of one op, and the checks on an op's outputs.

* ``sweep``: ``dpxa experiment sweep`` on the 30 desk triples at
  N = 2^14, one realization each, ``--jobs 2`` (the process pool).
* ``rho``: ``dpxa experiment rho`` at N = 2^16 with one seed per op,
  ``--jobs 1``.
* ``analyze``: ``dpxa analyze mfdpxa`` on a 3-column CSV of 2^16 rows.

Every op of a run gets the same inputs, so each op's outputs must match
the untimed warm-up op's. At ``DEFAULT_SEED`` they must also match the
reference outputs stored under ``reference/``; on every seed they must be
finite, with |rho| <= 1.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# outputs agree when within REL_TOL relative, or ABS_TOL absolute near zero
REL_TOL = 1e-9
ABS_TOL = 1e-12

_BETAS = {"intercept": 2.0, "slope": 3.0}


def _desk_triples() -> list[list[float]]:
    pairs = (0.2, 0.4, 0.6, 0.8)
    return [[hrx, hry, hz] for hrx in pairs for hry in pairs if hrx <= hry
            for hz in (0.2, 0.5, 0.8)]


# --------------------------------------------------------------------------- #
# comparison and invariants

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def compare(got, want, where: str = "") -> list[str]:
    """Differences between two parsed outputs, as readable lines."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [d for k in sorted(want)
                for d in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare(g, w, f"{where}[{i}]")]
    numeric = (int, float)
    if (isinstance(want, numeric) and isinstance(got, numeric)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        return [] if _close(float(got), float(want)) else \
            [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def _numbers(obj):
    for v in _leaves(obj):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            yield float(v)


def _nonfinite(obj, label: str) -> list[str]:
    # the program writes NaN as null and infinities as "inf" / "-inf"
    bad = sum(1 for v in _leaves(obj)
              if v is None or v in ("inf", "-inf")
              or (isinstance(v, float) and not math.isfinite(v)))
    return [f"{label}: {bad} non-finite values"] if bad else []


def _read_csv(path: Path) -> list[list]:
    """A CSV as rows of floats; an empty cell (NaN in the program) is None."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return [rows[0]] + [[float(c) if c else None for c in row]
                        for row in rows[1:]]


# --------------------------------------------------------------------------- #
# workloads

class Workload:
    name = ""
    jobs = 1
    realizations = 1   # Monte-Carlo realizations per op
    outputs: tuple[str, ...] = ()
    # window-stage counts per realization of the program this benchmark was
    # defined on; the traced run reports whether they still hold
    baseline_counts: dict[str, float] = {}

    def prepare(self, workdir: Path, seed: int) -> Path:
        """Write the op's input file from the seed; return its path."""
        raise NotImplementedError

    def argv(self, source: Path, out: Path, jobs: int) -> list[str]:
        raise NotImplementedError

    def invariants(self, outputs: dict) -> list[str]:
        raise NotImplementedError

    def read_outputs(self, out: Path) -> dict:
        """Parsed outputs of one op, keyed by output file name."""
        parsed = {}
        for name in self.outputs:
            path = out / name
            parsed[name] = (json.loads(path.read_text(encoding="utf-8"))
                            if name.endswith(".json") else _read_csv(path))
        return parsed

    def check(self, outputs: dict, warm: dict | None,
              seed: int | None) -> list[str]:
        """Every problem found in one op's parsed outputs; ``seed=None``
        checks the invariants only."""
        problems = self.invariants(outputs)
        if warm is not None:
            problems += [f"differs from warm-up op: {d}"
                         for d in compare(outputs, warm)[:3]]
        if seed == DEFAULT_SEED:
            reference = self.reference()
            problems += [f"differs from reference: {d}"
                         for d in compare(outputs, reference)[:3]]
        return problems

    def reference(self) -> dict:
        return self.read_outputs(REFERENCE_DIR / self.name)


class _Experiment(Workload):
    """An ``experiment`` op: the input is a JSON spec file."""

    outputs = ("results.json",)

    def spec(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, workdir: Path, seed: int) -> Path:
        path = workdir / f"{self.name}-spec.json"
        path.write_text(json.dumps(self.spec(seed), indent=2),
                        encoding="utf-8")
        return path

    def argv(self, source: Path, out: Path, jobs: int) -> list[str]:
        return ["experiment", self.name, "--spec", str(source),
                "--out", str(out), "--jobs", str(jobs)]

    def invariants(self, outputs: dict) -> list[str]:
        results = outputs["results.json"]
        problems = _nonfinite(results, "results.json")
        if results.get("experiment") != self.name:
            problems.append(f"results.json: experiment is "
                            f"{results.get('experiment')!r}")
        return problems


class Sweep(_Experiment):
    name = "sweep"
    jobs = 2
    realizations = len(_desk_triples())
    # 11 profile sets per scale on 20 scales: DFA of rx, ry, z, x, y, DCCA
    # of (x, y) and (rx, ry), DPXA of (x, y | z); 7 of the 11 are distinct
    baseline_counts = {"detrend.profile_sets": 220,
                       "detrend.distinct_profile_ratio": 7 / 11}

    def spec(self, seed: int) -> dict:
        return {"hurst_grid": _desk_triples(), "realizations": 1,
                "length": 2 ** 14, "corr": 0.5, "beta_x": _BETAS,
                "beta_y": _BETAS, "seed_base": seed}

    def invariants(self, outputs: dict) -> list[str]:
        problems = super().invariants(outputs)
        triples = outputs["results.json"].get("triples", [])
        if len(triples) != self.realizations:
            problems.append(f"results.json: {len(triples)} triples, "
                            f"expected {self.realizations}")
        return problems


class Rho(_Experiment):
    name = "rho"
    # two DCCA and one DPXA coefficient, two profile sets each, 20 scales
    baseline_counts = {"detrend.profile_sets": 120,
                       "detrend.distinct_profile_ratio": 1.0}

    def spec(self, seed: int) -> dict:
        return {"corr": 0.7, "hurst_x": 0.1, "hurst_y": 0.1,
                "hurst_z": 0.95, "length": 2 ** 16, "seeds": 1,
                "beta_x": _BETAS, "beta_y": _BETAS, "seed_base": seed}

    def invariants(self, outputs: dict) -> list[str]:
        problems = super().invariants(outputs)
        results = outputs["results.json"]
        curves = results.get("curves", {})
        if len(curves) != 3 or len(results.get("scales", [])) != 20:
            problems.append("results.json: expected 3 curves on 20 scales")
        beyond = [v for v in _numbers(curves) if abs(v) > 1.0]
        if beyond:
            problems.append(f"results.json: {len(beyond)} |rho| > 1")
        return problems


class Analyze(Workload):
    name = "analyze"
    outputs = ("out_fit.json", "out_fluct.csv")
    baseline_counts = {"detrend.profile_sets": 40,
                       "detrend.distinct_profile_ratio": 1.0}
    length = 2 ** 16

    def prepare(self, workdir: Path, seed: int) -> Path:
        """A force z with short memory (8-point moving sum of white noise),
        white noises r_x, r_y with correlation 0.7, and the contaminated
        pair x, y = 2 + 3 z + r; 12 significant digits."""
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((3, self.length))
        z = np.convolve(noise[0], np.full(8, 0.5), mode="same")
        rx = noise[1]
        ry = 0.7 * noise[1] + math.sqrt(1.0 - 0.7 ** 2) * noise[2]
        table = np.column_stack([2.0 + 3.0 * z + rx, 2.0 + 3.0 * z + ry, z])
        path = workdir / "analyze-input.csv"
        np.savetxt(path, table, fmt="%.12g", delimiter=",", header="x,y,z",
                   comments="")
        return path

    def argv(self, source: Path, out: Path, jobs: int) -> list[str]:
        return ["analyze", "mfdpxa", str(source), "--x", "x", "--y", "y",
                "--z", "z", "--out", str(out / "out")]

    def read_outputs(self, out: Path) -> dict:
        parsed = super().read_outputs(out)
        # the input path differs from run to run
        parsed["out_fit.json"]["config"].pop("input", None)
        return parsed

    def invariants(self, outputs: dict) -> list[str]:
        fit = outputs["out_fit.json"]["fit"]
        problems = _nonfinite([fit["h"], fit["tau"], fit["r_squared"]],
                              "out_fit.json")
        if len(fit["q"]) != 17:
            problems.append(f"out_fit.json: {len(fit['q'])} orders, "
                            "expected 17")
        # alpha and f(alpha) are undefined (null) only at the two end orders
        inner = [fit["alpha"][1:-1], fit["f_alpha"][1:-1]]
        if any(v is None for part in inner for v in part):
            problems.append("out_fit.json: missing interior alpha")
        rows = outputs["out_fluct.csv"][1:]
        cells = [v for row in rows for v in row]
        if len(rows) != 20 or any(v is None or not math.isfinite(v)
                                  for v in cells):
            problems.append("out_fluct.csv: expected 20 finite rows")
        elif any(v < 0.0 for row in rows for v in row[2:]):
            problems.append("out_fluct.csv: negative F(q, s)")
        return problems


WORKLOADS = {w.name: w for w in (Sweep(), Rho(), Analyze())}
