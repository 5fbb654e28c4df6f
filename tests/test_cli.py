import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpxa import ContaminationSpec, FgnSpec, gen_bfbm_increments, gen_fgn
from dpxa import DetrendConfig, ForceMatrix, QGrid, ScaleGrid, cli, \
    fluctuation_dcca, fluctuation_dfa, fluctuation_dpxa, rho_curve, rho_dcca
from dpxa.cli import main
from dpxa.core import MAX_GRID_COUNT
from dpxa.errors import ConfigError
from dpxa.experiments import EXPERIMENTS, MAX_TASKS
from dpxa.generators import BfbmSpec
from dpxa.io import read_series_csv, write_table_csv
from oracle import contaminate

from test_core import CHECKED, _wrong_types


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


# method -> its error on 4,000 rows whose x the force z explains
DEGENERATE = [
    ("dpxa", "all 400 windows are exactly degenerate at scale 10"),
    ("mfdpxa", "all 400 windows are exactly degenerate at scale 10"),
    ("rho-dpxa", "constant residuals give a zero denominator at scale 10"),
]


@pytest.mark.parametrize("method, error", DEGENERATE)
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


@pytest.mark.parametrize("method, error", DEGENERATE)
def test_analyze_force_explaining_offset_x_exits_degenerate(tmp_path, capsys,
                                                            method, error):
    # x = 1e8 + 3 z on z leaves rounding of about 1e-8 a point, far below
    # the offset that its raw moment holds
    z = gen_fgn(FgnSpec(0.7, 4000, 1)).values
    y = gen_fgn(FgnSpec(0.4, 4000, 2)).values
    src = tmp_path / "offset.csv"
    np.savetxt(src, np.column_stack([1e8 + 3.0 * z, y, z]), fmt="%.17g",
               delimiter=",", header="x,y,z", comments="")
    assert run(["analyze", method, src, "--x", "x", "--y", "y", "--z", "z",
                "--out", tmp_path / "r"]) == 5
    assert capsys.readouterr().err == f"dpxa: error: {error}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["offset.csv"]


@pytest.mark.parametrize("method, series_scale, force_scale, scale", [
    ("dfa", 3e150, None, 2984), ("dfa", 1e152, None, 92),
    ("dpxa", 1e152, 1e152, 325), ("dpxa", 1e160, 1.0, 10),
    ("dpxa", 1.0, 1e160, 10)],
    ids=["dfa-3e150", "dfa-1e152", "dpxa-all", "dpxa-series", "dpxa-force"])
def test_analyze_overflowing_products_exit_numerical(tmp_path, capsys, method,
                                                     series_scale,
                                                     force_scale, scale):
    # the estimators are scale-free, but products beyond float64's range
    # overflow, which read as exactly degenerate windows or left-out
    # forces; the tests' warning filter turns an escaped numpy warning
    # into an error
    n = 2 ** 14
    x, y, z = (gen_fgn(FgnSpec(h, n, seed)).values
               for h, seed in ((0.7, 3), (0.4, 4), (0.9, 5)))
    src = tmp_path / "big.csv"
    if method == "dfa":
        write_columns(src, {"x": series_scale * x})
        argv = ["--col", "x"]
    else:
        write_columns(src, {"x": series_scale * (x + z),
                            "y": series_scale * (y + z),
                            "z": force_scale * z})
        argv = ["--x", "x", "--y", "y", "--z", "z"]
    assert run(["analyze", method, src, *argv, "--out", tmp_path / "r"]) == 5
    assert capsys.readouterr().err == \
        f"dpxa: error: window products overflow float64 at scale {scale}\n"


def _h2(tmp_path, factor) -> float:
    # DFA's h(2) of factor * x for the standard-normal x, by the CLI
    x = np.random.default_rng(0).standard_normal(4096)
    src, out = tmp_path / f"{factor:g}.csv", tmp_path / f"{factor:g}"
    write_columns(src, {"x": factor * x})
    assert run(["analyze", "dfa", src, "--col", "x", "--out", out]) == 0
    fit = json.loads(Path(f"{out}_fit.json").read_text())["fit"]
    return fit["h"][0]


def test_analyze_underflowing_products_exit_numerical(tmp_path, capsys):
    # 1e-150 x keeps every window product normal, so its h(2) is that of
    # x; at 1e-160 subnormal products would move h(2) by 6.7e-6 unflagged
    assert _h2(tmp_path, 1e-150) == pytest.approx(_h2(tmp_path, 1.0),
                                                  rel=0, abs=1e-12)
    src = tmp_path / "tiny.csv"
    write_columns(src, {"x": 1e-160 * np.random.default_rng(0)
                        .standard_normal(4096)})
    capsys.readouterr()
    assert run(["analyze", "dfa", src, "--col", "x",
                "--out", tmp_path / "r"]) == 5
    assert capsys.readouterr().err == \
        "dpxa: error: window products underflow float64 at scale 10\n"


@pytest.mark.parametrize("factor, error", [
    (1e-300, "window products underflow float64 at scale 10"),
    (1e-310, "window products underflow float64 at scale 10"),
    (0.0, "all 409 windows are exactly degenerate at scale 10")])
@pytest.mark.parametrize("method", ["polynomial", "moving_average"])
def test_analyze_products_flushed_to_zero_exit_numerical(tmp_path, capsys,
                                                         method, factor,
                                                         error):
    # every square of these profiles flushes to zero, so their windows
    # would read as exactly degenerate; the kernel names the underflow.
    # The profiles of a constant series are exactly zero: degenerate
    src = tmp_path / "tiny.csv"
    write_columns(src, {"x": factor * np.random.default_rng(0)
                        .standard_normal(4096)})
    assert run(["analyze", "dfa", src, "--col", "x", "--detrend", method,
                "--out", tmp_path / "r"]) == 5
    assert capsys.readouterr().err == f"dpxa: error: {error}\n"


def test_analyze_large_q_exits_numerical(tmp_path, capsys):
    # |F^2|^(q/2) beyond float64 is refused, not fitted or excluded as a
    # non-positive point; the tests' warning filter turns an escaped numpy
    # overflow warning into an error
    src = tmp_path / "x.csv"
    write_columns(src, {"x": np.random.default_rng(0).standard_normal(4096)})
    assert run(["analyze", "mfdfa", src, "--col", "x", "--q-min", -400,
                "--q-max", 400, "--q-count", 5, "--out", tmp_path / "r"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpxa: error: F(q=400, s) is beyond float64's " \
        "range at scale 237\n"


@pytest.mark.parametrize("method, flags, cfg", [
    ("dpxa", ["--detrend", "moving_average", "--no-intercept"],
     DetrendConfig(method="moving_average", with_intercept=False)),
    ("dfa", ["--poly-order", 2], DetrendConfig(poly_order=2))],
    ids=["dpxa-ma-nocept", "dfa-2"])
def test_analyze_detrend_flags_reach_the_estimator(tmp_path, method, flags,
                                                   cfg):
    # offset, trending columns, on which each flag changes F
    rng = np.random.default_rng(8)
    src = tmp_path / "in.csv"
    write_columns(src, {c: 2.0 + 1e-3 * np.arange(2048)
                        + rng.standard_normal(2048) for c in "xyz"})
    dpxa = method == "dpxa"
    argv = ["--x", "x", "--y", "y", "--z", "z"] if dpxa else ["--col", "x"]
    assert run(["analyze", method, src, *argv, *flags,
                "--out", tmp_path / "cli"]) == 0
    x, y, z = read_series_csv(src).values()
    forces = ForceMatrix([z]) if dpxa else None
    scales, orders = ScaleGrid.default(2048), QGrid.second_order()
    for name, config in (("direct", cfg), ("default", DetrendConfig())):
        surface = fluctuation_dpxa(x, y if dpxa else x, forces, scales,
                                   orders, config)
        write_table_csv(tmp_path / f"{name}_fluct.csv",
                        ["scale", "cov2", "F_q2"],
                        [[int(s), surface.cov2[j], surface.F[0, j]]
                         for j, s in enumerate(scales.scales)])
    written = (tmp_path / "cli_fluct.csv").read_bytes()
    assert written == (tmp_path / "direct_fluct.csv").read_bytes()
    assert written != (tmp_path / "default_fluct.csv").read_bytes()


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


@pytest.mark.parametrize("column", ["x", "z"])
def test_non_finite_cell_names_its_column(tmp_path, capsys, column):
    # row 101 of the column holds nan: the message names the column and
    # formats the value as Python does, not as numpy's repr
    cells = np.random.default_rng(5).standard_normal((200, 3)).astype(str)
    cells[100, "xyz".index(column)] = "nan"
    src = tmp_path / "in.csv"
    src.write_text("\n".join(["x,y,z", *map(",".join, cells)]) + "\n")
    assert run(["analyze", "dpxa", src, "--x", "x", "--y", "y", "--z", "z",
                "--out", tmp_path / "a"]) == 3
    assert capsys.readouterr().err == (
        f"dpxa: error: column {column!r}: non-finite value nan at element "
        "101 (1-based)\n")


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


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_recorded_spec_reproduces_the_run(tmp_path, name):
    # the spec a run records in results.json, fed back through --spec,
    # gives the same files byte for byte
    preset, again = tmp_path / "preset", tmp_path / "again"
    assert run(["experiment", name, "--preset", "smoke", "--out", preset,
                "--jobs", 1]) == 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        json.loads((preset / "results.json").read_text())["spec"]))
    assert run(["experiment", name, "--spec", path, "--out", again,
                "--jobs", 1]) == 0
    files = sorted(f.name for f in preset.iterdir() if f.suffix != ".txt")
    assert len(files) == 2 and "results.json" in files
    for file in files:
        assert (preset / file).read_bytes() == (again / file).read_bytes()


def test_spec_file_with_a_byte_order_mark_runs_as_without(tmp_path):
    # editors that save UTF-8 with a BOM write the same spec
    text = json.dumps(RHO_SPEC)
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        (tmp_path / f"{name}.json").write_text(text, encoding=encoding)
        assert run(["experiment", "rho", "--spec", tmp_path / f"{name}.json",
                    "--out", tmp_path / name, "--jobs", 1]) == 0
    assert (tmp_path / "bom.json").read_bytes()[:3] == b"\xef\xbb\xbf"
    assert (tmp_path / "plain" / "results.json").read_bytes() == \
        (tmp_path / "bom" / "results.json").read_bytes()


@pytest.mark.parametrize("text, key", [
    ('{"seeds": 1, "seeds": 2}', "seeds"),
    ('{"beta_x": {"intercept": 2.0, "slope": 3.0, "slope": 5.0}}', "slope"),
], ids=["top-level", "nested"])
def test_spec_file_refuses_a_duplicate_key(tmp_path, capsys, text, key):
    # json keeps the last of two values; a spec file may not hold both
    base = {k: v for k, v in RHO_SPEC.items() if k not in ("seeds", "beta_x")}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(base)[:-1] + ", " + text[1:])
    assert run(["experiment", "rho", "--spec", path,
                "--out", tmp_path / "out"]) == 4
    assert f"spec file holds key {key!r} twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data", [b'{"corr": 0.7,', b'{"corr": "\xff"}'],
                         ids=["truncated", "not-utf8"])
def test_spec_file_that_is_not_json_is_ingestion_error(tmp_path, capsys,
                                                       data):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    assert run(["experiment", "rho", "--spec", path,
                "--out", tmp_path / "out"]) == 3
    assert "is not valid JSON" in capsys.readouterr().err


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
    ("rho", RHO_SPEC, "seeds", 1.5, "seeds must be an integer, got 1.5"),
    ("rho", RHO_SPEC, "typo_key", 1, "unknown key 'typo_key'"),
    ("sweep", SWEEP_SPEC, "realizations", 0,
     "realizations must be >= 1, got 0"),
    ("sweep", SWEEP_SPEC, "length", 0, "length must be >= 1, got 0"),
    ("sweep", SWEEP_SPEC, "hurst_grid", [], "hurst_grid must be a non-empty "
     "sequence of (H_rx, H_ry, H_z) triples, got []"),
    ("mf", MF_SPEC, "depth", 0, "depth must be >= 1, got 0"),
    ("mf", MF_SPEC, "p_x", 0, "p_x must lie in (0, 1), got 0.0"),
    ("mf", MF_SPEC, "noise_hurst", 0, "noise_hurst must lie in (0, 1)"),
    ("mf", MF_SPEC, "beta_y", {"intercept": 1}, "key 'beta_y': "
     "ContaminationSpec.__init__() missing 1 required positional argument: "
     "'slope'"),
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
    # a length above the generators' limit of 2^24 points
    ("rho", RHO_SPEC, "length", 2 ** 24 + 1,
     "length 16777217 exceeds the limit of 2^24 points"),
    ("sweep", SWEEP_SPEC, "length", 2 ** 24 + 1,
     "length 16777217 exceeds the limit of 2^24 points"),
    # more tasks than the runner holds: refused before any run
    ("rho", RHO_SPEC, "seeds", 10 ** 19,
     f"10000000000000000000 tasks exceed the limit of {MAX_TASKS}"),
    ("sweep", SWEEP_SPEC, "realizations", MAX_TASKS + 1,
     f"{MAX_TASKS + 1} tasks exceed the limit of {MAX_TASKS}"),
    ("mf", MF_SPEC, "seeds", MAX_TASKS + 1,
     f"{MAX_TASKS + 1} tasks exceed the limit of {MAX_TASKS}"),
    # the grid rule is SweepSpec's, as in a call (test_experiments)
    ("sweep", SWEEP_SPEC, "hurst_grid", [[0.5, 0.5]], "hurst_grid must be a "
     "non-empty sequence of (H_rx, H_ry, H_z) triples, got [[0.5, 0.5]]"),
    ("sweep", SWEEP_SPEC, "hurst_grid", [["a", 0.5, 0.5]], "each Hurst "
     "index in hurst_grid must be a finite number, got 'a'"),
    ("sweep", SWEEP_SPEC, "hurst_grid", [[0.5, 0.5, True]], "each Hurst "
     "index in hurst_grid must be a finite number, got True"),
    ("sweep", SWEEP_SPEC, "hurst_grid", "abc", "hurst_grid must be a "
     "non-empty sequence of (H_rx, H_ry, H_z) triples, got 'abc'"),
    # a contamination field is judged by ContaminationSpec, a whole number
    # in a float field is stored as a float, and one beyond float64 refused
    pytest.param("rho", RHO_SPEC, "beta_x",
                 {"intercept": 2, "slope": 10 ** 400},
                 f"key 'beta_x': slope must be a finite number, got "
                 f"{10 ** 400}", id="rho-beta_x-slope-401-digits"),
    ("rho", RHO_SPEC, "beta_y", 5, "key 'beta_y': dpxa.generators."
     "ContaminationSpec() argument after ** must be a mapping, not int"),
    ("rho", RHO_SPEC, "corr", 1.5, "corr must lie in [-1, 1], got 1.5"),
])
def test_bad_spec_field_is_config_error(tmp_path, capsys, name, base, key,
                                        value, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**base, key: value}))
    assert run(["experiment", name, "--spec", path,
                "--out", tmp_path / "out"]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _wrong_spec_values():
    # test_core's wrong types for each experiment spec's int and float
    # fields, and for each float field an integer beyond float64's range
    names = {row.spec: name for name, row in EXPERIMENTS.items()}
    for param in _wrong_types():
        spec, key, value, _ = param.values
        if type(spec) in names:
            yield pytest.param(names[type(spec)], spec, key, value,
                               id=param.id)
    for spec in CHECKED:
        for f in dataclasses.fields(spec):
            if type(spec) in names and f.type == "float":
                yield pytest.param(names[type(spec)], spec, f.name, 10 ** 400,
                                   id=f"{type(spec).__name__}-{f.name}-"
                                   "401-digits")


@pytest.mark.parametrize("name, spec, key, value", _wrong_spec_values())
def test_spec_file_refuses_as_the_constructor_does(tmp_path, capsys, name,
                                                   spec, key, value):
    # json writes nan and inf as NaN and Infinity, and reads them back
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(spec, **{key: value})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**dataclasses.asdict(spec), key: value}))
    assert run(["experiment", name, "--spec", path,
                "--out", tmp_path / "out"]) == 4
    assert capsys.readouterr().err == \
        f"dpxa: error: invalid experiment spec:\n  {info.value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("existing, out", [
    ((), "new/run"), (("there",), "there"), (("there",), "there/run")],
    ids=["made", "existing", "made-in-existing"])
def test_failed_run_leaves_no_empty_out(tmp_path, capsys, existing, out):
    # cascades of p = 0.5 are flat, so every window is degenerate: the
    # directories the run made are removed again, one that was there stays
    for name in existing:
        (tmp_path / name).mkdir()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**MF_SPEC, "p_x": 0.5, "p_y": 0.5}))
    assert run(["experiment", "mf", "--spec", path, "--out", tmp_path / out,
                "--jobs", 1]) == 5
    assert "exactly degenerate" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(["spec.json", *existing])
    for name in existing:
        assert not any((tmp_path / name).iterdir())


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


# the smoke presets' summaries but their elapsed lines
SMOKE_SUMMARIES = {
    "sweep": """\
sweep: 1 triples x 2 realizations, N=4096, corr=0.5, seed_base=12345
recovery regression h_xyz ~ 1 + h_rx + h_ry + h_z (tolerance +-0.1):
  intercept (expected 0): not evaluated
  coef_h_rx (expected 0.5): not evaluated
  coef_h_ry (expected 0.5): not evaluated
  coef_h_z (expected 0): not evaluated
  max |rel err| over 1 pairs with min(H) >= 0.2 (tolerance 0.1): 0.0179 -> PASS
  max |h_rxry - (h_rx+h_ry)/2| (tolerance 0.03): 0.0001 -> PASS""",
    "rho": """\
rho comparison: corr=0.7, H=(0.1, 0.1), H_z=0.95, N=4096, 2 seeds, seed_base=777
  |mean rho_dpxa - 0.7| over s <= N/10 (tolerance 0.08): 0.0124 -> PASS
  rho_dcca(x,y) at s=10 (floor 0.9): 0.9445 -> PASS""",
    "mf": """\
mf recovery: p=(0.3, 0.4), depth=10, 2 seeds, seed_base=55
  realized signal-to-noise ratio: 5.928e-04
  max |tau_xyz - theory| over q (tolerance 0.15): 0.2230 -> FAIL
  mfdcca(x,y) spectrum width (tolerance 0.2): 0.0850 -> PASS
  mfdcca(x,y) spectrum center (0.5 +- 0.1): 0.4996 -> PASS""",
}


@pytest.mark.parametrize("name", SMOKE_SUMMARIES)
def test_smoke_summaries_word_for_word(tmp_path, capsys, name):
    # a failed check is a verdict, not an error: the mf run exits 0
    out = tmp_path / "out"
    assert run(["experiment", name, "--preset", "smoke", "--out", out,
                "--jobs", 1]) == 0
    text = (out / "summary.txt").read_text()
    body, elapsed = text.rstrip("\n").rsplit("\n", 1)
    assert body == SMOKE_SUMMARIES[name]
    assert elapsed.startswith("elapsed: ")
    assert capsys.readouterr().out == text


def test_mf_center_check_expects_the_noise_hurst_index(tmp_path):
    # the masked pair's MF-DCCA follows its noise z, here of H_z = 0.8
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**MF_SPEC, "depth": 16, "seeds": 8,
                                "seed_base": 55, "noise_hurst": 0.8}))
    out = tmp_path / "out"
    assert run(["experiment", "mf", "--spec", path, "--out", out,
                "--jobs", 1]) == 0
    assert "\n  mfdcca(x,y) spectrum center (0.8 +- 0.1): 0.7891 -> PASS\n" \
        in (out / "summary.txt").read_text()


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
    ("dfa", "--s-count", 0), ("mfdfa", "--q-count", 0),
    # counts above the limit are refused before anything is allocated
    ("dfa", "--s-count", 10 ** 13), ("mfdfa", "--q-count", 10 ** 13),
    ("dfa", "--s-count", MAX_GRID_COUNT + 1)])
def test_count_below_one_is_config_error(tmp_path, capsys, method, flag,
                                         count):
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 1024, "--seed", 1,
         "--out", src])
    capsys.readouterr()
    assert run(["analyze", method, src, "--col", "fgn", flag, count,
                "--out", tmp_path / "run"]) == 4
    name = flag[2:].replace("-", "_")
    problem = (f"must be >= 1, got {count}" if count < 1 else
               f"{count} exceeds the limit of {MAX_GRID_COUNT}")
    assert capsys.readouterr().err == f"dpxa: error: {name} {problem}\n"
    assert not list(tmp_path.glob("run_*"))


def test_count_at_the_limit_runs(tmp_path):
    # the limit bounds the count, not the series: the default scale grid
    # of a short series drops its repeats
    src = tmp_path / "fgn.csv"
    run(["gen", "fgn", "--hurst", 0.5, "--length", 1024, "--seed", 1,
         "--out", src])
    assert run(["analyze", "dfa", src, "--col", "fgn", "--s-count",
                MAX_GRID_COUNT, "--out", tmp_path / "run"]) == 0
    assert len(QGrid.default(count=MAX_GRID_COUNT)) == MAX_GRID_COUNT


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
    z = ForceMatrix([columns["z"]])
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


@pytest.mark.parametrize("kind", [
    ["fgn", "--hurst", 0.5],
    ["bfbm", "--hx", 0.3, "--hy", 0.7, "--rho", 0.5]], ids=["fgn", "bfbm"])
def test_gen_length_above_the_limit_is_size_error(tmp_path, capsys, kind):
    out = tmp_path / "x.csv"
    assert run(["gen", *kind, "--length", 2 ** 24 + 1, "--out", out]) == 4
    assert "length 16777217 exceeds the limit of 2^24 points" \
        in capsys.readouterr().err
    assert not out.exists()


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
