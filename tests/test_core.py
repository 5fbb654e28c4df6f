import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpxa import (
    DataError,
    EmptyInputError,
    InvalidScaleError,
    QGrid,
    ScaleGrid,
    TimeSeries,
    as_series,
    partition_windows,
)


def test_partition_examples():
    part = partition_windows(100, 30)
    assert part.box_count == 3
    assert part.boxes.tolist() == [[1, 30], [31, 60], [61, 90]]

    part = partition_windows(64, 64)
    assert part.box_count == 1
    assert part.boxes.tolist() == [[1, 64]]

    assert partition_windows(65536, 16).box_count == 4096


@pytest.mark.parametrize("T,s", [(10, 11), (10, 0), (5, -1)])
def test_partition_invalid_scale(T, s):
    with pytest.raises(InvalidScaleError):
        partition_windows(T, s)


@given(st.integers(min_value=1, max_value=5000), st.data())
def test_partition_properties(T, data):
    s = data.draw(st.integers(min_value=1, max_value=T))
    part = partition_windows(T, s)
    assert part.box_count * s <= T < (part.box_count + 1) * s
    # boxes cover the prefix 1..M*s exactly once
    covered = np.concatenate([np.arange(a, b + 1) for a, b in part.boxes])
    assert covered.tolist() == list(range(1, part.box_count * s + 1))
    assert all(b - a + 1 == s for a, b in part.boxes)


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
