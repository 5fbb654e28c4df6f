import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpxa import ContaminationSpec, FgnSpec, contaminate, gen_bfbm_increments, \
    gen_fgn
from dpxa import ForceMatrix, QGrid, ScaleGrid, cli, fluctuation_dcca, \
    fluctuation_dfa, fluctuation_dpxa, rho_curve, rho_dcca
from dpxa.cli import main
from dpxa.generators import BfbmSpec
from dpxa.io import read_series_csv, write_table_csv


def run(argv):
    return main([str(a) for a in argv])


def write_columns(path, columns: dict) -> None:
    write_table_csv(path, list(columns), zip(*columns.values()))


def test_import_leaves_out_the_process_pool():
    # only a run with --jobs > 1 loads the pool's modules, so the other
    # starts of the CLI do not pay for them
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, dpxa.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "False"


def test_gen_fgn_roundtrip(tmp_path):
    out = tmp_path / "fgn.csv"
    assert run(["gen", "fgn", "--hurst", 0.7, "--length", 4096,
                "--seed", 1, "--out", out]) == 0
    cols = read_series_csv(out)
    assert list(cols) == ["fgn"]
    assert cols["fgn"].size == 4096
    meta = json.loads((tmp_path / "fgn.csv.json").read_text())
    assert meta == {"hurst": 0.7, "kind": "fgn", "length": 4096, "seed": 1}


@pytest.mark.parametrize("kind, flags", [
    ("fgn", ["--hurst", 0.5]),
    ("bfbm", ["--hx", 0.5, "--hy", 0.5, "--rho", 0.1]),
])
def test_gen_negative_seed_is_config_error(tmp_path, capsys, kind, flags):
    out = tmp_path / "g.csv"
    assert run(["gen", kind, *flags, "--length", 16, "--seed", -3,
                "--out", out]) == 4
    assert capsys.readouterr().err == \
        "dpxa: error: seed must be >= 0, got -3\n"
    assert not out.exists()


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        run(["gen", "fgn", "--hurst", 0.4, "--length", 512, "--seed", 9,
             "--out", out])
    assert a.read_bytes() == b.read_bytes()


def test_gen_bfbm_two_columns(tmp_path):
    out = tmp_path / "pair.csv"
    assert run(["gen", "bfbm", "--hx", 0.1, "--hy", 0.1, "--rho", 0.7,
                "--length", 8192, "--seed", 2, "--out", out]) == 0
    cols = read_series_csv(out)
    assert list(cols) == ["x", "y"]
    assert cols["x"].size == 8192


def test_gen_binomial_mass(tmp_path):
    out = tmp_path / "bin.csv"
    assert run(["gen", "binomial", "--p", 0.3, "--depth", 12,
                "--out", out]) == 0
    cols = read_series_csv(out)
    assert cols["binomial"].size == 4096
    assert abs(cols["binomial"].sum() - 1.0) <= 1e-9
    meta = json.loads((tmp_path / "bin.csv.json").read_text())
    assert meta == {"depth": 12, "kind": "binomial", "multiplier": 0.3}


def test_analyze_dfa_on_generated_noise(tmp_path):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 4096, "--seed", 1,
         "--out", src])
    assert run(["analyze", "dfa", src, "--col", "fgn",
                "--out", tmp_path / "run"]) == 0
    payload = json.loads((tmp_path / "run_fit.json").read_text())
    assert abs(payload["fit"]["h"][0] - 0.5) <= 0.05
    assert payload["config"]["detrend"]["poly_order"] == 1
    assert (tmp_path / "run_fluct.csv").read_text().startswith("scale,cov2,")


def test_analyze_labels_h_with_the_order_it_reports(tmp_path, capsys):
    # four orders from -4 to 4 leave out 2: the nearest is 4/3
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 4096, "--seed", 1,
         "--out", src])
    capsys.readouterr()
    assert run(["analyze", "mfdfa", src, "--col", "fgn", "--q-count", 4,
                "--out", tmp_path / "run"]) == 0
    fit = json.loads((tmp_path / "run_fit.json").read_text())["fit"]
    assert fit["q"][2] == pytest.approx(4.0 / 3.0)
    assert capsys.readouterr().out.endswith(
        f"(h(1.33333) = {fit['h'][2]:.4f})\n")


def test_analyze_dpxa_recovers_partial_exponent(tmp_path):
    n = 2 ** 13
    z = gen_fgn(FgnSpec(0.9, n, 21))
    rx, ry = gen_bfbm_increments(BfbmSpec(0.3, 0.3, 0.6, n, 22))
    betas = ContaminationSpec(2.0, 3.0)
    src = tmp_path / "model.csv"
    write_columns(src, {
        "x": contaminate(rx, z, betas).values,
        "y": contaminate(ry, z, betas).values,
        "z": z.values,
    })
    assert run(["analyze", "dpxa", src, "--x", "x", "--y", "y", "--z", "z",
                "--out", tmp_path / "dp"]) == 0
    payload = json.loads((tmp_path / "dp_fit.json").read_text())
    assert abs(payload["fit"]["h"][0] - 0.3) <= 0.08
    # without the force the common driver dominates
    assert run(["analyze", "dcca", src, "--x", "x", "--y", "y",
                "--out", tmp_path / "dc"]) == 0
    h_dcca = json.loads((tmp_path / "dc_fit.json").read_text())["fit"]["h"][0]
    assert h_dcca > 0.6


@pytest.mark.parametrize("method, error", [
    ("dpxa", "all 400 windows are exactly degenerate at scale 10"),
    ("mfdpxa", "all 400 windows are exactly degenerate at scale 10"),
    ("rho-dpxa", "constant residuals give a zero denominator at scale 10"),
])
def test_analyze_force_explaining_x_exits_degenerate(tmp_path, capsys,
                                                     method, error):
    # x on the force x leaves x - b x, rounding whose F(2, s) of about
    # 3.6e-9 fitted h(2) = 0.63 with R^2 0.95: it counts as zero
    src = tmp_path / "b.csv"
    assert run(["gen", "bfbm", "--hx", 0.3, "--hy", 0.7, "--rho", 0.5,
                "--length", 4000, "--seed", 2, "--out", src]) == 0
    capsys.readouterr()
    assert run(["analyze", method, src, "--x", "x", "--y", "y", "--z", "x",
                "--out", tmp_path / "r"]) == 5
    assert capsys.readouterr().err == f"dpxa: error: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv",
                                                          "b.csv.json"]


@pytest.mark.filterwarnings("ignore::dpxa.errors.SpectrumValidityWarning")
def test_analyze_mfdfa_on_a_run_of_zeros(tmp_path):
    # its zero windows made F(q < 0, s) vanish at 18 of 20 scales, and the
    # fit of q = -4 failed with exit 4
    values = np.random.default_rng(3).standard_normal(8192)
    values[:1500] = 0.0
    src = tmp_path / "zeros.csv"
    write_columns(src, {"x": values})
    assert run(["analyze", "mfdfa", src, "--col", "x",
                "--out", tmp_path / "r"]) == 0
    cols = read_series_csv(tmp_path / "r_fluct.csv")
    F = np.array([v for name, v in cols.items() if name.startswith("F_q")])
    assert F.shape == (17, 20)
    assert np.isfinite(F).all() and (F > 0).all()


def test_analyze_rho_curve(tmp_path):
    src = tmp_path / "pair.csv"
    run(["gen", "bfbm", "--hx", 0.1, "--hy", 0.1, "--rho", 0.7,
         "--length", 8192, "--seed", 2, "--out", src])
    assert run(["analyze", "rho-dcca", src, "--x", "x", "--y", "y",
                "--out", tmp_path / "rho"]) == 0
    lines = (tmp_path / "rho_rho.csv").read_text().splitlines()
    assert lines[0] == "scale,rho"
    rho = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.abs(rho) <= 1.0)
    assert abs(rho.mean() - 0.7) <= 0.1


def test_analyze_mfdfa_emits_spectrum(tmp_path):
    src = tmp_path / "bin.csv"
    run(["gen", "binomial", "--p", 0.3, "--depth", 14, "--out", src])
    assert run(["analyze", "mfdfa", src, "--col", "binomial", "--dyadic",
                "--s-min", 256, "--out", tmp_path / "mf"]) == 0
    payload = json.loads((tmp_path / "mf_fit.json").read_text())
    fit = payload["fit"]
    assert len(fit["q"]) == 17
    assert fit["alpha"][0] is None and fit["alpha"][1] is not None
    assert fit["tau"][fit["q"].index(0.0)] == pytest.approx(-1.0)


def test_missing_column_is_ingestion_error(tmp_path, capsys):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 512, "--seed", 0,
         "--out", src])
    code = run(["analyze", "dfa", src, "--col", "nope", "--out",
                tmp_path / "x"])
    assert code == 3
    assert "nope" in capsys.readouterr().err


def test_bad_cell_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    code = run(["analyze", "dfa", src, "--col", "a", "--out", tmp_path / "x"])
    assert code == 3
    err = capsys.readouterr().err
    assert "line 3" in err and "oops" in err


def test_headerless_csv_rejected(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text("1.0,2.0\n3.0,4.0\n")
    assert run(["analyze", "dfa", src, "--col", "a",
                "--out", tmp_path / "x"]) == 3


def test_byte_order_mark_is_not_part_of_first_column(tmp_path, monkeypatch):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 1024, "--seed", 4,
         "--out", src])
    outputs = {}
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        # same relative paths, so the config echo in the outputs matches too
        workdir = tmp_path / name
        workdir.mkdir()
        (workdir / "in.csv").write_bytes(prefix + src.read_bytes())
        monkeypatch.chdir(workdir)
        assert run(["analyze", "dfa", "in.csv", "--col", "fgn",
                    "--out", "run"]) == 0
        outputs[name] = {path.name: path.read_bytes()
                         for path in sorted(workdir.glob("run_*"))}
    assert outputs["plain"] and outputs["bom"] == outputs["plain"]


@pytest.mark.parametrize("data", [
    "x,y\n1,2\n3,\xe9\n".encode("latin-1"),
    "x,y\n1,2\n3,4\n".encode("utf-16"),
], ids=["latin-1", "utf-16"])
def test_non_utf8_csv_is_ingestion_error(tmp_path, capsys, data):
    src = tmp_path / "encoded.csv"
    src.write_bytes(data)
    assert run(["analyze", "dfa", src, "--col", "x",
                "--out", tmp_path / "x"]) == 3
    err = capsys.readouterr().err
    assert str(src) in err and "not UTF-8" in err


def test_scale_out_of_range_is_config_error(tmp_path, capsys):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 400, "--seed", 0,
         "--out", src])
    code = run(["analyze", "dfa", src, "--col", "fgn", "--s-min", 10,
                "--s-max", 200, "--out", tmp_path / "x"])
    assert code == 4


def test_dpxa_without_force_is_config_error(tmp_path):
    src = tmp_path / "pair.csv"
    run(["gen", "bfbm", "--hx", 0.3, "--hy", 0.3, "--rho", 0.5,
         "--length", 1024, "--seed", 5, "--out", src])
    assert run(["analyze", "dpxa", src, "--x", "x", "--y", "y",
                "--out", tmp_path / "x"]) == 4


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["analyze", "fft", "in.csv", "--out", "x"])
    assert err.value.code == 2


def test_experiment_preset_and_determinism(tmp_path):
    first, second = tmp_path / "r1", tmp_path / "r2"
    for out in (first, second):
        assert run(["experiment", "rho", "--preset", "smoke", "--out", out,
                    "--jobs", 2]) == 0
    for name in ("results.json", "rho.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    summary = (first / "summary.txt").read_text()
    assert "PASS" in summary or "FAIL" in summary


def test_experiment_unknown_preset(tmp_path, capsys):
    assert run(["experiment", "rho", "--preset", "bogus",
                "--out", tmp_path]) == 4
    assert "bogus" in capsys.readouterr().err


def test_experiment_spec_file(tmp_path):
    spec = {"corr": 0.7, "hurst_x": 0.1, "hurst_y": 0.1, "hurst_z": 0.95,
            "length": 4096, "seeds": 2,
            "beta_x": {"intercept": 2, "slope": 3},
            "beta_y": {"intercept": 2, "slope": 3}, "seed_base": 5}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["experiment", "rho", "--spec", path,
                "--out", tmp_path / "out"]) == 0
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert payload["spec"]["seed_base"] == 5


def test_experiment_spec_file_lists_all_violations(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"corr": 0.7, "beta_x": {"bad": 1}}))
    assert run(["experiment", "rho", "--spec", path,
                "--out", tmp_path / "out"]) == 4
    err = capsys.readouterr().err
    for key in ("hurst_x", "hurst_y", "hurst_z", "length", "seeds", "beta_x"):
        assert key in err


RHO_SPEC = {"corr": 0.7, "hurst_x": 0.1, "hurst_y": 0.1, "hurst_z": 0.95,
            "length": 4096, "seeds": 2,
            "beta_x": {"intercept": 2, "slope": 3},
            "beta_y": {"intercept": 2, "slope": 3}, "seed_base": 5}
SWEEP_SPEC = {"hurst_grid": [[0.5, 0.5, 0.5]], "realizations": 1,
              "length": 4096, "beta_x": {"intercept": 2, "slope": 3},
              "beta_y": {"intercept": 2, "slope": 3}}
MF_SPEC = {"p_x": 0.3, "p_y": 0.4, "depth": 10, "seeds": 1,
           "beta_x": {"intercept": 2, "slope": 3},
           "beta_y": {"intercept": 2, "slope": 3}}


@pytest.mark.parametrize("name, base, key, value, message", [
    ("rho", RHO_SPEC, "seeds", 0, "seeds must be >= 1, got 0"),
    ("rho", RHO_SPEC, "length", 0, "length must be >= 1, got 0"),
    ("rho", RHO_SPEC, "hurst_x", 0, "hurst_x must lie in (0, 1), got 0.0"),
    ("rho", RHO_SPEC, "hurst_z", 1, "hurst_z must lie in (0, 1), got 1.0"),
    ("rho", RHO_SPEC, "corr", 2, "corr must lie in [-1, 1], got 2.0"),
    ("rho", RHO_SPEC, "seeds", 1.5, "key 'seeds': cannot interpret 1.5"),
    ("rho", RHO_SPEC, "typo_key", 1, "unknown key 'typo_key'"),
    ("sweep", SWEEP_SPEC, "realizations", 0,
     "realizations must be >= 1, got 0"),
    ("sweep", SWEEP_SPEC, "length", 0, "length must be >= 1, got 0"),
    ("sweep", SWEEP_SPEC, "hurst_grid", [], "key 'hurst_grid': cannot "
     "interpret [] as a non-empty list of [H_rx, H_ry, H_z] triples"),
    ("mf", MF_SPEC, "depth", 0, "depth must be >= 1, got 0"),
    ("mf", MF_SPEC, "p_x", 0, "p_x must lie in (0, 1), got 0.0"),
    ("mf", MF_SPEC, "noise_hurst", 0, "noise_hurst must lie in (0, 1)"),
    ("mf", MF_SPEC, "beta_y", {"intercept": 1}, "key 'beta_y': cannot "
     "interpret"),
    # a spec too short for its own scale grid fails before any run
    ("mf", MF_SPEC, "depth", 2, "no scales in [s_min, s_max] = [8, 1]"),
    ("mf", MF_SPEC, "depth", 7,
     "only 3 scales inside [8, 32]; need at least 4"),
    ("rho", RHO_SPEC, "length", 16, "no scales in [s_min, s_max] = [10, 4]"),
    ("rho", RHO_SPEC, "length", 40,
     "no scale at or below N/10 = 4; the smallest is 10"),
    ("sweep", SWEEP_SPEC, "length", 30,
     "no scales in [s_min, s_max] = [10, 7]"),
    ("sweep", SWEEP_SPEC, "length", 44,
     "only 2 scales inside [10, 11]; need at least 4"),
    # a negative seed base is rejected like any other bad field
    ("rho", RHO_SPEC, "seed_base", -1, "seed_base must be >= 0, got -1"),
    ("sweep", SWEEP_SPEC, "seed_base", -1, "seed_base must be >= 0, got -1"),
    ("mf", MF_SPEC, "seed_base", -1, "seed_base must be >= 0, got -1"),
])
def test_bad_spec_field_is_config_error(tmp_path, capsys, name, base, key,
                                        value, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**base, key: value}))
    assert run(["experiment", name, "--spec", path,
                "--out", tmp_path / "out"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_with_no_pair_for_the_relative_error_check(tmp_path):
    # min(H) < 0.2 for the only pair: the check is reported, not passed
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SWEEP_SPEC, "length": 1024,
                                "hurst_grid": [[0.1, 0.15, 0.5]]}))
    out = tmp_path / "out"
    assert run(["experiment", "sweep", "--spec", path, "--out", out,
                "--jobs", 1]) == 0
    summary = (out / "summary.txt").read_text()
    assert "max |rel err| over 0 pairs with min(H) >= 0.2 (tolerance " \
        "0.1): not evaluated\n" in summary
    line = next(ln for ln in summary.splitlines() if "rel err" in ln)
    assert "PASS" not in line


def test_fit_bounds_of_zero_are_used_as_given(tmp_path, capsys):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 4096, "--seed", 1,
         "--out", src])
    assert run(["analyze", "dfa", src, "--col", "fgn", "--fit-min", 0,
                "--out", tmp_path / "run"]) == 0
    payload = json.loads((tmp_path / "run_fit.json").read_text())
    assert payload["fit"]["fit_range"] == [0, 1024]
    assert run(["analyze", "dfa", src, "--col", "fgn", "--fit-max", 0,
                "--out", tmp_path / "run"]) == 4
    assert "empty fit range [10, 0]" in capsys.readouterr().err


def test_s_min_above_s_max_is_config_error(tmp_path, capsys):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 4096, "--seed", 1,
         "--out", src])
    assert run(["analyze", "dfa", src, "--col", "fgn", "--s-min", 200,
                "--s-max", 50, "--out", tmp_path / "run"]) == 4
    assert "[200, 50]" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*"))


def test_explicit_default_scale_bounds_change_nothing(tmp_path, monkeypatch):
    run(["gen", "fgn", "--hurst", 0.6, "--length", 4096, "--seed", 3,
         "--out", tmp_path / "in.csv"])
    monkeypatch.chdir(tmp_path)
    for prefix, bounds in (("plain", []),
                           ("bounded", ["--s-min", 10, "--s-max", 1024])):
        assert run(["analyze", "dfa", "in.csv", "--col", "fgn", *bounds,
                    "--out", prefix]) == 0
    for suffix in ("_fluct.csv", "_fit.json"):
        assert (tmp_path / f"bounded{suffix}").read_bytes() == \
            (tmp_path / f"plain{suffix}").read_bytes()


def test_dyadic_scale_two_is_config_error(tmp_path, capsys):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 1024, "--seed", 1,
         "--out", src])
    assert run(["analyze", "dfa", src, "--col", "fgn", "--dyadic",
                "--s-min", 2, "--out", tmp_path / "run"]) == 4
    assert "too large for scale 2" in capsys.readouterr().err


@pytest.mark.parametrize("method,flag,count", [
    ("dfa", "--s-count", -1), ("mfdfa", "--q-count", -2),
    ("dfa", "--s-count", 0), ("mfdfa", "--q-count", 0)])
def test_count_below_one_is_config_error(tmp_path, capsys, method, flag,
                                         count):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 1024, "--seed", 1,
         "--out", src])
    capsys.readouterr()
    assert run(["analyze", method, src, "--col", "fgn", flag, count,
                "--out", tmp_path / "run"]) == 4
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == \
        f"dpxa: error: {name} must be >= 1, got {count}\n"
    assert not list(tmp_path.glob("run_*"))


# flag -> (the arguments beside which the method does not read it, how
# the error names them)
UNUSED_BESIDE = {"--x": (["--col", "x"], "--col"),
                 "--s-count": (["--dyadic"], "--dyadic"),
                 "--poly-order": (["--detrend", "moving_average"],
                                  "--detrend moving_average")}


@pytest.mark.parametrize("method, flag", [
    *((m, "--z") for m in ("dfa", "mfdfa", "dcca", "mfdcca", "rho-dcca")),
    ("dfa", "--y"), ("mfdfa", "--y"),
    *((m, f) for m in ("rho-dcca", "rho-dpxa")
      for f in ("--fit-min", "--fit-max")),
    *((m, "--col") for m in ("dcca", "mfdcca", "dpxa", "mfdpxa", "rho-dcca",
                             "rho-dpxa")),
    ("dfa", "--x"), ("mfdfa", "--x"),
    *((m, f) for m in ("dfa", "dcca", "dpxa", "rho-dcca", "rho-dpxa")
      for f in ("--q-min", "--q-max", "--q-count")),
    ("dfa", "--s-count"), ("dfa", "--poly-order"),
    *((m, "--no-intercept") for m in ("dfa", "mfdfa", "dcca", "mfdcca",
                                      "rho-dcca"))])
def test_unused_flag_is_config_error(tmp_path, capsys, method, flag):
    src = tmp_path / "in.csv"
    rng = np.random.default_rng(4)
    write_columns(src, {c: rng.standard_normal(1024) for c in "xyz"})
    argv = ["analyze", method, src]
    if flag != "--x":
        argv += ["--x", "x"]
    if method not in ("dfa", "mfdfa"):
        argv += ["--y", "y"]
    if method.endswith("dpxa"):
        argv += ["--z", "z"]
    beside, named = UNUSED_BESIDE.get(flag, ([], None))
    value = {"--y": ["y"], "--z": ["z"], "--col": ["x"], "--x": ["y"],
             "--no-intercept": []}.get(flag, [20])
    assert run([*argv, *beside, flag, *value,
                "--out", tmp_path / "run"]) == 4
    unused = f"{flag} with {named}" if named else flag
    assert capsys.readouterr().err == \
        f"dpxa: error: method {method!r} does not use {unused}\n"
    assert not list(tmp_path.glob("run_*"))


def test_tuning_flags_default_to_none():
    # ScaleGrid, QGrid and DetrendConfig own the defaults; a flag not
    # given must be told from one given with the default's value
    args = cli.build_parser().parse_args(
        ["analyze", "dfa", "f.csv", "--out", "o"])
    tuning = {name: value for name, value in vars(args).items()
              if name.startswith(("s_", "q_", "fit_", "detrend", "poly_"))}
    assert len(tuning) == 10
    assert tuning == dict.fromkeys(tuning)


@pytest.mark.parametrize("method, given, flag", [
    ("dfa", [], "--col"), ("dcca", ["--x", "x"], "--y"),
    ("rho-dcca", ["--y", "y"], "--x"),
    ("dpxa", ["--x", "x", "--y", "y"], "--z")])
def test_missing_column_flag_names_the_method(tmp_path, capsys, method,
                                              given, flag):
    src = tmp_path / "in.csv"
    write_columns(src, {"x": np.arange(64.0), "y": np.ones(64)})
    assert run(["analyze", method, src, *given,
                "--out", tmp_path / "run"]) == 4
    assert capsys.readouterr().err == \
        f"dpxa: error: method {method!r} requires {flag}\n"


# method, less its mf prefix -> (its estimator called directly on the
# columns x, y and the force z, the columns it reads)
ESTIMATORS = {
    "dfa": (lambda x, y, z, s, q: fluctuation_dfa(x, s, q), ("x",)),
    "dcca": (lambda x, y, z, s, q: fluctuation_dcca(x, y, s, q), ("x", "y")),
    "dpxa": (lambda x, y, z, s, q: fluctuation_dpxa(x, y, z, s, q),
             ("x", "y", "z")),
    "rho-dcca": (lambda x, y, z, s, q: rho_dcca(x, y, s), ("x", "y")),
    "rho-dpxa": (lambda x, y, z, s, q: rho_curve(x, y, z, s),
                 ("x", "y", "z")),
}


@pytest.mark.parametrize("method", [
    "dfa", "dcca", "dpxa", "mfdfa", "mfdcca", "mfdpxa", "rho-dcca",
    "rho-dpxa"])
def test_method_runs_its_estimator(tmp_path, method):
    estimator, read = ESTIMATORS[method.removeprefix("mf")]
    src = tmp_path / "in.csv"
    rng = np.random.default_rng(11)
    write_columns(src, {c: rng.standard_normal(2048)
                        for c in ("w", "x", "y", "z")})
    argv = ["--col", "x"] if read == ("x",) else \
        [a for c in read for a in (f"--{c}", c)]
    assert run(["analyze", method, src, *argv,
                "--out", tmp_path / "cli"]) == 0

    columns = read_series_csv(src)
    z = ForceMatrix.from_series([columns["z"]])
    scales = ScaleGrid.default(2048)
    orders = QGrid.default() if method.startswith("mf") else \
        QGrid.second_order()
    result = estimator(columns["x"], columns["y"], z, scales, orders)
    if method.startswith("rho"):
        suffix, header = "_rho", ["scale", "rho"]
        rows = list(zip(scales.scales.tolist(), result.rho))
    else:
        suffix = "_fluct"
        header = ["scale", "cov2"] + [f"F_q{q:g}" for q in orders.orders]
        rows = [[int(s), result.cov2[j], *result.F[:, j]]
                for j, s in enumerate(scales.scales)]
    write_table_csv(tmp_path / f"direct{suffix}.csv", header, rows)
    assert (tmp_path / f"cli{suffix}.csv").read_bytes() == \
        (tmp_path / f"direct{suffix}.csv").read_bytes()
    sidecar = "_rho.json" if method.startswith("rho") else "_fit.json"
    payload = json.loads((tmp_path / f"cli{sidecar}").read_text())
    assert payload["kind"] == result.kind
    assert payload["config"]["columns"] == {
        "x": "x", "y": "y" if "y" in read else None,
        "z": ["z"] if "z" in read else []}


def test_binomial_depth_over_limit_is_config_error(tmp_path, capsys):
    out = tmp_path / "bin.csv"
    assert run(["gen", "binomial", "--p", 0.3, "--depth", 30,
                "--out", out]) == 4
    assert "the limit is" in capsys.readouterr().err
    assert not out.exists()


def test_jobs_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(cli.experiments, "usable_cpus", lambda: 3)
    args = cli.build_parser().parse_args(
        ["experiment", "sweep", "--preset", "smoke", "--out", "o"])
    assert args.jobs == 3


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_config_error(tmp_path, capsys, jobs):
    assert run(["experiment", "rho", "--preset", "smoke", "--jobs", jobs,
                "--out", tmp_path / "out"]) == 4
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


GEN = ["gen", "fgn", "--hurst", 0.5, "--length", 256]
ANALYZE = ["analyze", "dfa", "{input}", "--col", "fgn"]
EXPERIMENT = ["experiment", "rho", "--preset", "smoke"]


# an experiment creates its output directory with its parents, so only a
# regular file on the way stops it
@pytest.mark.parametrize("command, parent", [
    (GEN, "missing"), (ANALYZE, "missing"),
    (GEN, "in.csv"), (ANALYZE, "in.csv"), (EXPERIMENT, "in.csv"),
], ids=["gen-missing-parent", "analyze-missing-parent", "gen-under-a-file",
        "analyze-under-a-file", "experiment-under-a-file"])
def test_unwritable_out_is_config_error(tmp_path, capsys, command, parent):
    src = tmp_path / "in.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 256, "--out", src])
    parent = tmp_path / parent
    out = parent / "sub" / "out"
    argv = [str(src) if a == "{input}" else a for a in command]
    assert run([*argv, "--out", out]) == 4
    err = capsys.readouterr().err.strip()
    assert err.startswith("dpxa: error: cannot write ")
    assert str(parent) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, line", [
    ('x,y\n"1",2\n1.' + "5" * 140_000 + ",3\n", 3),
    ("x,y\n1,2\n1." + "5" * 140_000 + ",3\n", 3),
    ("x" * 140_000 + ",y\n1,2\n", 1),
], ids=["long-cell-and-quoted-cell", "long-cell", "long-header-name"])
def test_field_over_csv_limit_is_ingestion_error(tmp_path, capsys, text,
                                                 line):
    src = tmp_path / "long.csv"
    src.write_text(text)
    assert run(["analyze", "dfa", src, "--col", "x",
                "--out", tmp_path / "run"]) == 3
    err = capsys.readouterr().err
    assert f"{src} line {line}: field larger than field limit" in err
