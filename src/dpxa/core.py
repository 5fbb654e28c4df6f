"""Shared value types: series and the scale/q grids, and ``check_fields``,
the one owner of the type and range rules of spec and config fields.

All types are immutable after construction and safe to share across
concurrent workers. Window and element indices are 1-based in
documentation and error messages; arrays are regular 0-based numpy.
"""

from __future__ import annotations

import mmap
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError, EmptyInputError, \
    InvalidScaleError, SizeError

DEFAULT_SCALE_COUNT = 20
DEFAULT_MIN_SCALE = 10
# most points a scale or q grid is asked for: a series of T points has at
# most T/4 distinct default scales, and the default q grid has 17 orders
MAX_GRID_COUNT = 2 ** 16


# check_fields' rules, each a test of a value and what it asks: one for a
# field annotated int or float, and one for each group of field names
_RULES = {
    "int": (lambda v: isinstance(v, numbers.Integral), "be an integer"),
    # an integer beyond float64's range is not a finite number either
    "float": (lambda v: isinstance(v, numbers.Real)
              and abs(v) <= sys.float_info.max, "be a finite number"),
    "unit": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "positive": (lambda v: v >= 1, "be >= 1"),
    "natural": (lambda v: v >= 0, "be >= 0"),
    "correlation": (lambda v: -1.0 <= v <= 1.0, "lie in [-1, 1]"),
}


def check_value(name: str, value, *rules):
    """``value``, a float from the ``float`` rule on, once it passes each
    rule named (other names are skipped; no bool passes); else ConfigError."""
    for rule in rules:
        test, asks = _RULES.get(rule, (None, None))
        if test and (isinstance(value, bool) or not test(value)):
            raise ConfigError(f"{name} must {asks}, got {value!r}")
        value = float(value) if rule == "float" else value
    return value


def check_fields(spec, unit=(), positive=(), natural=(),
                 correlation=()) -> None:
    """Each field of the dataclass ``spec`` annotated ``int`` holds an
    integer and each ``float`` field a finite real number, neither a bool
    nor a str, stored as a float; each field a group names lies in its
    range. Raises the ``check_value`` error of the first field, in
    declaration order, that breaks a rule."""
    group = {name: g for g, names in (
        ("unit", unit), ("positive", positive), ("natural", natural),
        ("correlation", correlation)) for name in names}
    for f in fields(spec):
        # the annotation is a string under postponed evaluation
        object.__setattr__(spec, f.name, check_value(
            f.name, getattr(spec, f.name),
            getattr(f.type, "__name__", f.type), group.get(f.name)))


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _resident_array(values: np.ndarray) -> np.ndarray:
    """A read-only C-ordered float copy of ``values`` in a memory mapping
    of its own, for the arrays a cache keeps for the life of the process.
    Kept in the heap, they split the free space that each call's
    temporaries reuse, and the peak resident set grows."""
    out = np.ndarray(values.shape, buffer=mmap.mmap(-1, values.nbytes))
    out[...] = values
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite real-valued sequence."""

    values: np.ndarray

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
                f"non-finite value {float(arr[first])!r} at element "
                f"{first + 1} (1-based)"
            )
        object.__setattr__(self, "values", _frozen_array(arr))

    def __len__(self) -> int:
        return self.values.size


def as_series(data) -> TimeSeries:
    """Coerce an array-like (or pass through a TimeSeries) with validation."""
    if isinstance(data, TimeSeries):
        return data
    return TimeSeries(np.asarray(data, dtype=float))


def _check_count(count: int, name: str) -> None:
    """1 <= count <= MAX_GRID_COUNT, checked before anything is allocated."""
    if count < 1:
        raise InvalidScaleError(f"{name} must be >= 1, got {count}")
    if count > MAX_GRID_COUNT:
        raise SizeError(f"{name} {count} exceeds the limit of "
                        f"{MAX_GRID_COUNT}")


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
        # the rounded grid is sorted, so repeats are neighbours; np.unique
        # would import numpy.ma (about 1.4 MB of resident set) to drop them
        g = np.rint(raw).astype(int)
        return cls(g[np.r_[True, np.diff(g) > 0]])

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
