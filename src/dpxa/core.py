"""Shared value types: series and the scale/q grids.

All types are immutable after construction and safe to share across
concurrent workers. Window and element indices are 1-based in
documentation and error messages; arrays are regular 0-based numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    EmptyInputError,
    InvalidScaleError,
)

DEFAULT_SCALE_COUNT = 20
DEFAULT_MIN_SCALE = 10


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite real-valued sequence with an optional label."""

    values: np.ndarray
    label: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise DataError(f"series must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise EmptyInputError("series is empty")
        bad = ~np.isfinite(arr)
        if bad.any():
            first = int(np.argmax(bad))
            raise DataError(
                f"non-finite value {arr[first]!r} at element {first + 1} (1-based)"
                + (f" of series {self.label!r}" if self.label else "")
            )
        object.__setattr__(self, "values", _frozen_array(arr))

    def __len__(self) -> int:
        return self.values.size


def as_series(data, label: str | None = None) -> TimeSeries:
    """Coerce an array-like (or pass through a TimeSeries) with validation."""
    if isinstance(data, TimeSeries):
        return data
    return TimeSeries(np.asarray(data, dtype=float), label=label)


def _check_count(count: int, name: str) -> None:
    if count < 1:
        raise InvalidScaleError(f"{name} must be >= 1, got {count}")


def _check_bounds(series_length: int, s_min: int, s_max: int | None) -> int:
    """s_max, defaulting to floor(T/4), once 2 <= s_min <= s_max holds."""
    if s_max is None:
        s_max = series_length // 4
    if not 2 <= s_min <= s_max:
        raise InvalidScaleError(
            f"no scales in [s_min, s_max] = [{s_min}, {s_max}] for series "
            f"length {series_length}; need 2 <= s_min <= s_max"
        )
    return s_max


@dataclass(frozen=True, eq=False)
class ScaleGrid:
    """Strictly increasing integer window sizes used by every analysis."""

    scales: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scales, dtype=int)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidScaleError("scale grid must be a non-empty 1-d sequence")
        if arr.min() < 2:
            raise InvalidScaleError(f"smallest scale {arr.min()} < 2")
        if np.any(np.diff(arr) <= 0):
            raise InvalidScaleError("scales must be strictly increasing")
        object.__setattr__(self, "scales", _frozen_array(arr, dtype=int))

    def __len__(self) -> int:
        return self.scales.size

    def check_series_length(self, series_length: int) -> "ScaleGrid":
        """Fit-range bound: every scale must satisfy s <= floor(T/4)."""
        bound = series_length // 4
        if self.scales.max() > bound:
            raise InvalidScaleError(
                f"scale {self.scales.max()} exceeds floor(T/4) = {bound} "
                f"for series length {series_length}"
            )
        return self

    @classmethod
    def default(cls, series_length: int, count: int = DEFAULT_SCALE_COUNT,
                s_min: int = DEFAULT_MIN_SCALE,
                s_max: int | None = None) -> "ScaleGrid":
        """~count log-spaced integers from s_min to s_max (default
        floor(T/4)), deduplicated."""
        _check_count(count, "s_count")
        s_max = _check_bounds(series_length, s_min, s_max)
        raw = np.logspace(np.log10(s_min), np.log10(s_max), count)
        return cls(np.unique(np.rint(raw).astype(int)))

    @classmethod
    def dyadic(cls, series_length: int, s_min: int = 16,
               s_max: int | None = None) -> "ScaleGrid":
        """Powers of two in [s_min, s_max]; the natural grid for cascade data."""
        s_max = _check_bounds(series_length, s_min, s_max)
        exps = np.arange(int(np.ceil(np.log2(s_min))),
                         int(np.floor(np.log2(s_max))) + 1)
        if exps.size == 0:
            raise InvalidScaleError(
                f"no powers of two in [{s_min}, {s_max}]"
            )
        return cls(2 ** exps)


@dataclass(frozen=True, eq=False)
class QGrid:
    """Strictly increasing real moment orders; q = 0 is allowed."""

    orders: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.orders, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidScaleError("q grid must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidScaleError("q grid must be finite")
        if np.any(np.diff(arr) <= 0):
            raise InvalidScaleError("q orders must be strictly increasing")
        object.__setattr__(self, "orders", _frozen_array(arr))

    def __len__(self) -> int:
        return self.orders.size

    @classmethod
    def default(cls, q_min: float = -4.0, q_max: float = 4.0,
                count: int = 17) -> "QGrid":
        """count evenly spaced orders from q_min to q_max."""
        _check_count(count, "q_count")
        return cls(np.linspace(q_min, q_max, count))

    @classmethod
    def second_order(cls) -> "QGrid":
        return cls(np.array([2.0]))
