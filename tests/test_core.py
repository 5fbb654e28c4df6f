import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpxa import (
    BfbmSpec,
    BinomialSpec,
    ConfigError,
    ContaminationSpec,
    DataError,
    DetrendConfig,
    EmptyInputError,
    FgnSpec,
    InvalidScaleError,
    MfSpec,
    QGrid,
    RhoSpec,
    ScaleGrid,
    SweepSpec,
    TimeSeries,
    as_series,
)


def test_validate_series_ok():
    ts = as_series([1.0, 2.0, 3.0])
    assert isinstance(ts, TimeSeries)
    assert ts.values.tolist() == [1.0, 2.0, 3.0]
    # idempotent on TimeSeries
    assert as_series(ts) is ts


def test_validate_series_nan_names_position():
    with pytest.raises(DataError, match="element 2"):
        as_series([1.0, np.nan])
    with pytest.raises(DataError, match="element 3"):
        as_series([0.0, 1.0, np.inf, 2.0])


def test_validate_series_empty():
    with pytest.raises(EmptyInputError):
        as_series([])


def test_series_is_immutable():
    ts = TimeSeries(np.arange(4.0))
    with pytest.raises(ValueError):
        ts.values[0] = 9.0


def test_default_scale_grid_bounds():
    grid = ScaleGrid.default(65536)
    assert grid.scales.min() == 10
    assert grid.scales.max() == 65536 // 4
    assert np.all(np.diff(grid.scales) > 0)
    assert len(grid) <= 20


def test_default_scale_grid_too_short():
    with pytest.raises(InvalidScaleError):
        ScaleGrid.default(30)


def test_default_scale_grid_explicit_bounds():
    n = 65536
    explicit = ScaleGrid.default(n, s_min=10, s_max=n // 4)
    assert explicit.scales.tolist() == ScaleGrid.default(n).scales.tolist()
    narrow = ScaleGrid.default(n, count=5, s_min=16, s_max=256)
    assert narrow.scales.tolist() == [16, 32, 64, 128, 256]


@pytest.mark.parametrize("s_min", [2, 4, 10, 16])
@pytest.mark.parametrize("count", [1, 2, 5, 20, 60, 200])
def test_default_scale_grid_drops_repeats_like_unique(count, s_min):
    # the neighbour mask keeps what np.unique kept, including the dense
    # low end where several log-spaced points round to one integer
    for n in (4 * s_min, 100, 1000, 4096, 12345, 2 ** 16):
        if n // 4 < s_min:
            continue
        raw = np.logspace(np.log10(s_min), np.log10(n // 4), count)
        want = np.unique(np.rint(raw).astype(int))
        got = ScaleGrid.default(n, count=count, s_min=s_min).scales
        assert got.tolist() == want.tolist(), (n, count, s_min)


def test_default_scale_grid_leaves_out_numpy_ma():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, dpxa.cli; from dpxa import ScaleGrid; "
            "ScaleGrid.default(2 ** 14); print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("make", [ScaleGrid.default, ScaleGrid.dyadic])
@pytest.mark.parametrize("s_min, s_max", [(200, 50), (0, 64), (-3, 64)])
def test_scale_bounds_rejected(make, s_min, s_max):
    with pytest.raises(InvalidScaleError, match=rf"\[{s_min}, {s_max}\]"):
        make(4096, s_min=s_min, s_max=s_max)


def test_scale_grid_validation():
    with pytest.raises(InvalidScaleError):
        ScaleGrid([10, 10, 20])
    with pytest.raises(InvalidScaleError):
        ScaleGrid([20, 10])
    with pytest.raises(InvalidScaleError):
        ScaleGrid([1, 5])


def test_scale_grid_series_bound():
    grid = ScaleGrid([10, 50, 100])
    grid.check_series_length(400)
    with pytest.raises(InvalidScaleError):
        grid.check_series_length(399)


def test_dyadic_scale_grid():
    grid = ScaleGrid.dyadic(2 ** 16)
    assert grid.scales.tolist() == [2 ** k for k in range(4, 15)]
    assert ScaleGrid.dyadic(2 ** 10, s_min=8, s_max=64).scales.tolist() == \
        [8, 16, 32, 64]


def test_q_grid():
    q = QGrid.default()
    assert len(q) == 17
    assert 0.0 in q.orders
    assert QGrid.second_order().orders.tolist() == [2.0]
    with pytest.raises(InvalidScaleError):
        QGrid([1.0, 1.0])
    with pytest.raises(InvalidScaleError):
        QGrid([2.0, 1.0])


BETA = ContaminationSpec(2.0, 3.0)
# one valid instance of each dataclass whose fields check_fields owns;
# among the wrong types below are FgnSpec(0.5, 100.5, 1),
# BinomialSpec(0.3, 2.5), and RhoSpec with seeds=2.5 and length=4096.0
CHECKED = (
    FgnSpec(0.5, 100, 1),
    BfbmSpec(0.3, 0.7, 0.5, 1024, 2),
    BinomialSpec(0.3, 2),
    BETA,
    SweepSpec(((0.5, 0.5, 0.5),), 1, 1024, BETA, BETA),
    RhoSpec(0.5, 0.3, 0.7, 0.9, 4096, 2, BETA, BETA),
    MfSpec(0.3, 0.4, 10, 1, BETA, BETA),
    DetrendConfig(),
)


def _wrong_types():
    for spec in CHECKED:
        for f in dataclasses.fields(spec):
            value = getattr(spec, f.name)
            if f.type == "int":
                rule = "an integer"
                wrong = (True, value + 0.5, float(value), str(value))
            elif f.type == "float":
                rule = "a finite number"
                wrong = (True, str(value), float("nan"), float("inf"))
            else:
                continue
            for bad in wrong:
                yield pytest.param(spec, f.name, bad, rule,
                                   id=f"{type(spec).__name__}-{f.name}-{bad!r}")


@pytest.mark.parametrize("spec, name, value, rule", _wrong_types())
def test_typed_field_refuses_a_wrong_type(spec, name, value, rule):
    # an int field holds an integer and a float field a finite number,
    # neither a bool nor a str
    with pytest.raises(ConfigError, match=f"^{name} must be {rule}, got "
                       f"{re.escape(repr(value))}$"):
        dataclasses.replace(spec, **{name: value})


def test_depth_cap_is_one_check():
    # a cascade's depth and an mf run's depth are refused alike
    errors = []
    for make in (lambda: BinomialSpec(0.3, 25),
                 lambda: MfSpec(0.3, 0.4, 25, 1, BETA, BETA)):
        with pytest.raises(ConfigError) as info:
            make()
        errors.append(info.value)
    assert type(errors[0]) is type(errors[1])
    assert str(errors[0]) == str(errors[1]) == \
        "depth 25 would generate 2^25 points; the limit is 24"
