"""Tests of the benchmark itself: the exact counters of the traced run, the
output check, and a traced run with an entry point missing.

    python3 perfbench/selftest.py

(or ``python -m pytest perfbench/selftest.py``; the file name keeps it out
of the default test collection, so the program's own suite does not run
it). Takes about half a minute.
"""

from __future__ import annotations

import copy
import sys
import traceback

import numpy as np

import run
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, compare

CLI = run.load_program()


def traced_op(name: str, seed: int = DEFAULT_SEED):
    """One traced op at ``--jobs 1``; returns (problems, per-layer metrics,
    tracer)."""
    workload = WORKLOADS[name]
    with run.scratch_dir(f"selftest-{name}") as workdir:
        source = workload.prepare(workdir, seed)
        tracer = Tracer()
        op = run.run_op(CLI, workload, source, workdir / "out", 1, seed,
                        None, tracer)
        return op.problems, tracer.op_metrics(), tracer


def test_sweep_counts_repeat_exactly():
    realizations = WORKLOADS["sweep"].realizations
    first = None
    for _ in range(2):
        problems, m, _ = traced_op("sweep")
        assert problems == []
        assert m["detrend.profile_sets"] == 220 * realizations
        assert m["detrend.distinct_profile_ratio"] == 7 / 11
        assert m["detrend.windows"] == 65868 * realizations
        assert m["fluctuation.calls"] == 8 * realizations
        assert m["scaling.fits"] == 8 * realizations
        # one pickled (spec, triple, realization) tuple per task
        assert m["experiments.task_payload_bytes"] == 34200
        counts = {k: v for k, v in m.items() if not k.endswith("_ms")}
        assert first is None or counts == first
        first = counts


def test_rho_counts():
    problems, m, _ = traced_op("rho")
    assert problems == []
    assert m["detrend.profile_sets"] == 120
    assert m["detrend.distinct_profile_ratio"] == 1.0
    assert m["experiments.task_payload_bytes"] == 640
    assert m["scaling.fits"] == 0


def test_analyze_counts():
    problems, m, _ = traced_op("analyze")
    assert problems == []
    assert m["detrend.profile_sets"] == 40
    assert m["detrend.distinct_profile_ratio"] == 1.0
    assert m["scaling.fits"] == 17
    assert m["io.bytes_read"] > 2_500_000
    assert m["generators.gen_fgn_ms"] == 0.0


def test_rank_deficient_windows_counted_from_warnings():
    """A force that is constant is collinear with the intercept in every
    window, so every window of every call is rank deficient."""
    workload = WORKLOADS["analyze"]
    rng = np.random.default_rng(1)
    table = np.column_stack([rng.standard_normal((2 ** 12, 2)),
                             np.ones(2 ** 12)])
    with run.scratch_dir("selftest-rank") as workdir:
        source = workdir / "constant-force.csv"
        np.savetxt(source, table, fmt="%.12g", delimiter=",",
                   header="x,y,z", comments="")
        tracer = Tracer()
        run.run_op(CLI, workload, source, workdir / "out", 1, None, None,
                   tracer)
    m = tracer.op_metrics()
    assert m["detrend.windows"] > 0
    assert m["detrend.rank_deficient_windows"] == m["detrend.windows"]


def test_missing_entry_point_is_reported_absent():
    """A program without ``window_residual_profiles`` still runs traced."""
    from dpxa import fluctuation

    original = fluctuation.window_residual_profiles
    pair_profiles = fluctuation._pair_profiles

    def inlined(x, y, fdata, s, cfg):
        dx = original(x.values, fdata, s, cfg)
        return (dx, dx) if y is x else (dx, original(y.values, fdata, s, cfg))

    del fluctuation.window_residual_profiles
    fluctuation._pair_profiles = inlined
    try:
        problems, m, tracer = traced_op("rho")
    finally:
        fluctuation.window_residual_profiles = original
        fluctuation._pair_profiles = pair_profiles
    assert problems == []
    assert "dpxa.fluctuation:window_residual_profiles" in tracer.absent
    assert "detrend.profile_sets" in tracer.absent_metrics()
    assert "detrend.profile_sets" not in m
    assert m["generators.gen_bfbm_increments_ms"] > 0.0


def test_check_tolerance():
    workload = WORKLOADS["rho"]
    reference = workload.reference()
    assert compare(reference, reference) == []
    curve = reference["results.json"]["curves"]["rho_dpxa"]
    nudged = copy.deepcopy(reference)
    nudged["results.json"]["curves"]["rho_dpxa"][3] = curve[3] * (1 + 1e-12)
    assert compare(nudged, reference) == []
    wrong = copy.deepcopy(reference)
    wrong["results.json"]["curves"]["rho_dpxa"][3] = curve[3] * (1 + 1e-6)
    assert len(compare(wrong, reference)) == 1
    wrong["results.json"]["curves"]["rho_dpxa"][3] = 1.5
    assert workload.check(wrong, None, DEFAULT_SEED + 1) != []


def test_default_seed_matches_reference():
    for workload in WORKLOADS.values():
        with run.scratch_dir(f"selftest-{workload.name}") as workdir:
            source = workload.prepare(workdir, DEFAULT_SEED)
            op = run.run_op(CLI, workload, source, workdir / "out",
                            workload.jobs, DEFAULT_SEED, None)
        assert op.problems == [], (workload.name, op.problems)


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    failures = 0
    for name, test in tests:
        try:
            test()
        except Exception:  # report every failing test, then exit non-zero
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    sys.exit(1 if failures else 0)
