import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpxa import ContaminationSpec, FgnSpec, contaminate, gen_bfbm_increments, \
    gen_fgn
from dpxa import cli
from dpxa.cli import main
from dpxa.generators import BfbmSpec
from dpxa.io import read_series_csv, write_series_csv


def run(argv):
    return main([str(a) for a in argv])


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


def test_analyze_dpxa_recovers_partial_exponent(tmp_path):
    n = 2 ** 13
    z = gen_fgn(FgnSpec(0.9, n, 21))
    rx, ry = gen_bfbm_increments(BfbmSpec(0.3, 0.3, 0.6, n, 22))
    betas = ContaminationSpec(2.0, 3.0)
    src = tmp_path / "model.csv"
    write_series_csv(src, {
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
])
def test_bad_spec_field_is_config_error(tmp_path, capsys, name, base, key,
                                        value, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**base, key: value}))
    assert run(["experiment", name, "--spec", path,
                "--out", tmp_path / "out"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
