"""Spans and counters for the traced run, recorded from outside the program.

The program imports functions by name (``from .fluctuation import ...``),
so a layer's entry point is wrapped in the namespace of the module that
calls it, not where it is defined: the imported functions in ``dpxa.cli``
and ``dpxa.experiments``, the public functions of ``dpxa.experiments``
(called as ``experiments.run_sweep`` from the CLI), the task fan-out
``dpxa.experiments._map_tasks`` and the window stage
``dpxa.fluctuation.window_residual_profiles``. An entry point that no
longer exists is listed as absent and its metrics are reported as absent;
the run goes on.

A span is (op, id, parent, layer, name, start, end). Self time is a span's
duration minus the durations of its direct children. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import pickle
import re
import time
import warnings

# the program's modules that form the benchmark's layers
LAYER_OF_MODULE = {
    "dpxa.generators": "generators",
    "dpxa.detrend": "detrend",
    "dpxa.fluctuation": "fluctuation",
    "dpxa.scaling": "scaling",
    "dpxa.io": "io",
    "dpxa.experiments": "experiments",
}

# namespaces whose imported layer functions are wrapped where they are called
CALLER_MODULES = ("dpxa.cli", "dpxa.experiments")

# private entry points wrapped by name: "module:attribute" -> layer
NAMED_ENTRY_POINTS = {
    "dpxa.experiments:_map_tasks": "experiments",
    "dpxa.fluctuation:window_residual_profiles": "detrend",
}

# per-layer metric -> (unit, entry points it needs, the end-to-end metric it
# should move and where). A "layer:" entry point means any wrapped function
# of that layer; a metric is absent when none of its entry points exists.
_WRP = ["dpxa.fluctuation:window_residual_profiles"]
_WINDOW_STAGE = ("sweep ops_per_s (~72% of an op), then rho and analyze "
                 "op_p50_ms (~64%, ~52%)")
_GENERATION = "rho op_p50_ms (~30%), sweep (~12%); analyze flat"
_FIT = "sweep (~6%) and analyze; rho has no fit"
_READ = "analyze op_p50_ms only"
PER_LAYER = {
    "detrend.window_residual_profiles_ms": ("ms", _WRP, _WINDOW_STAGE),
    "detrend.profile_sets": ("count", _WRP, _WINDOW_STAGE),
    "detrend.windows": ("count", _WRP, _WINDOW_STAGE),
    "detrend.distinct_profile_ratio":
        ("ratio", _WRP, "sweep only (0.64); rho and analyze (1.0) flat"),
    "detrend.rank_deficient_windows":
        ("count", _WRP, "none; counted from the warnings raised"),
    "generators.gen_fgn_ms":
        ("ms", ["dpxa.experiments:gen_fgn"], _GENERATION),
    "generators.gen_bfbm_increments_ms":
        ("ms", ["dpxa.experiments:gen_bfbm_increments"], _GENERATION),
    "generators.contaminate_ms":
        ("ms", ["dpxa.experiments:contaminate"], _GENERATION),
    "fluctuation.self_ms": ("ms", ["layer:fluctuation"], "sweep and analyze"),
    "fluctuation.calls":
        ("count", ["layer:fluctuation"], "sweep and analyze"),
    "scaling.fit_exponent_ms":
        ("ms", ["dpxa.cli:fit_exponent", "dpxa.experiments:fit_exponent"],
         _FIT),
    "scaling.fits":
        ("count", ["dpxa.cli:fit_exponent", "dpxa.experiments:fit_exponent"],
         _FIT),
    "scaling.legendre_ms":
        ("ms", ["dpxa.cli:legendre", "dpxa.experiments:legendre"], _FIT),
    "io.read_series_csv_ms": ("ms", ["dpxa.cli:read_series_csv"], _READ),
    "io.bytes_read": ("bytes", ["dpxa.cli:read_series_csv"], _READ),
    "io.write_ms": ("ms", ["layer:io"], _READ),
    "io.bytes_written": ("bytes", ["layer:io"], _READ),
    "experiments.task_payload_bytes":
        ("bytes", ["dpxa.experiments:_map_tasks"],
         "sweep ops_per_s; expect the count to move, not wall time"),
    "experiments.self_ms":
        ("ms", ["layer:experiments"], "sweep and rho"),
    "cli.self_ms":
        ("ms", ["dpxa.cli:main"], "every workload; a spec-parser rewrite "
                                   "should move nothing"),
}

_WRITERS = ("write_json", "write_table_csv", "write_series_csv")
_DEFICIENT_COUNT = re.compile(r"in (\d+) of \d+ windows")


def _array_digest(array) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.digest()


class Tracer:
    """Wraps the entry points while active and records spans and counters
    for one op at a time."""

    def __init__(self):
        self.spans: list[tuple] = []   # every closed span of every op
        self.present: set[str] = set()  # "module:attr" and "layer:name"
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (module, attr, original, wrapper)
        self._op = -1
        self._op_start = 0  # index in spans of the last op's first span
        self._next_id = 0
        self._stack: list[list] = []
        self._counters: dict[str, float] = {}
        self._profile_args: list[tuple] = []
        self._discover()

    # ----------------------------------------------------------------- #
    # discovery and patching

    def _discover(self) -> None:
        for mod_name in CALLER_MODULES:
            module = importlib.import_module(mod_name)
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn):
                    continue
                layer = LAYER_OF_MODULE.get(fn.__module__)
                if layer is None:
                    continue
                imported = fn.__module__ != mod_name
                if imported or not attr.startswith("_"):
                    self._plan(module, attr, layer)
        for key, layer in NAMED_ENTRY_POINTS.items():
            mod_name, attr = key.split(":")
            module = importlib.import_module(mod_name)
            if inspect.isfunction(getattr(module, attr, None)):
                self._plan(module, attr, layer)
        # run_op opens the root span around cli.main itself
        self.present.add("dpxa.cli:main")
        wanted = {src for _, srcs, _ in PER_LAYER.values() for src in srcs
                  if not src.startswith("layer:")}
        self.absent = sorted(wanted - self.present)

    def _plan(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(original, layer, attr)
        self._patches.append((module, attr, original, wrapper))
        self.present.add(f"{module.__name__}:{attr}")
        self.present.add(f"layer:{layer}")

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False

    # ----------------------------------------------------------------- #
    # spans

    def _open(self, layer: str, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else None
        span = [self._op, self._next_id, parent, layer, name,
                time.perf_counter(), None]
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack.pop()
        self.spans.append(tuple(span))

    def _count(self, key: str, amount: float) -> None:
        self._counters[key] = self._counters.get(key, 0) + amount

    def run_op(self, fn, *args):
        """Run one op under a root ``cli.main`` span; returns fn's result.

        The op's warnings are recorded, so rank-deficient windows can be
        counted, and then issued again in order."""
        self._op += 1
        self._op_start = len(self.spans)
        self._counters = {}
        self._profile_args = []
        span = self._open("cli", "main")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return fn(*args)
        finally:
            self._close(span)
            self._reissue(caught)

    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._after(name, args, result)
            return result

        return traced

    def _reissue(self, caught) -> None:
        for w in caught:
            if type(w.message).__name__ == "RankDeficiencyWarning":
                match = _DEFICIENT_COUNT.search(str(w.message))
                self._count("rank_deficient", int(match[1]) if match else 1)
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno)

    def _after(self, name: str, args, result) -> None:
        """Counters taken from an entry point's arguments after it returns."""
        try:
            if name == "window_residual_profiles":
                values, forces, size, cfg = args[:4]
                self._count("profile_sets", 1)
                self._count("windows", values.size // int(size))
                self._profile_args.append((values, forces, int(size),
                                           repr(cfg)))
            elif name == "read_series_csv":
                self._count("bytes_read", os.path.getsize(args[0]))
            elif name in _WRITERS:
                self._count("bytes_written", os.path.getsize(args[0]))
            elif name == "fit_exponent":
                self._count("fits", len(args[0].orders))
            elif name == "_map_tasks":
                self._count("payload", sum(len(pickle.dumps(task))
                                           for task in args[1]))
        except (TypeError, ValueError, AttributeError, IndexError, OSError):
            self._count(f"unreadable:{name}", 1)

    # ----------------------------------------------------------------- #
    # per-op results

    def distinct_profile_ratio(self) -> float:
        """Distinct (values, forces, scale, config) inputs over all window
        stage calls of the last op, by content hash."""
        if not self._profile_args:
            return 0.0
        digests: dict[int, bytes] = {}  # id -> digest; arrays kept alive

        def digest(array):
            if array is None:
                return None
            key = id(array)
            if key not in digests:
                digests[key] = _array_digest(array)
            return digests[key]

        keys = {(digest(v), digest(f), s, c)
                for v, f, s, c in self._profile_args}
        return len(keys) / len(self._profile_args)

    def op_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last op (absent ones omitted)."""
        spans = self.spans[self._op_start:]
        child_time: dict[int, float] = {}
        for s in spans:
            if s[2] is not None:
                child_time[s[2]] = child_time.get(s[2], 0.0) + s[6] - s[5]
        busy: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in spans:
            duration = (s[6] - s[5]) * 1e3
            busy[s[4]] = busy.get(s[4], 0.0) + duration
            self_ms[s[3]] = (self_ms.get(s[3], 0.0) + duration
                             - child_time.get(s[1], 0.0) * 1e3)
            calls[s[3]] = calls.get(s[3], 0) + 1
        c = self._counters
        values = {
            "detrend.window_residual_profiles_ms":
                busy.get("window_residual_profiles", 0.0),
            "detrend.profile_sets": c.get("profile_sets", 0),
            "detrend.windows": c.get("windows", 0),
            "detrend.distinct_profile_ratio": self.distinct_profile_ratio(),
            "detrend.rank_deficient_windows": c.get("rank_deficient", 0),
            "generators.gen_fgn_ms": busy.get("gen_fgn", 0.0),
            "generators.gen_bfbm_increments_ms":
                busy.get("gen_bfbm_increments", 0.0),
            "generators.contaminate_ms": busy.get("contaminate", 0.0),
            "fluctuation.self_ms": self_ms.get("fluctuation", 0.0),
            "fluctuation.calls": calls.get("fluctuation", 0),
            "scaling.fit_exponent_ms": busy.get("fit_exponent", 0.0),
            "scaling.fits": c.get("fits", 0),
            "scaling.legendre_ms": busy.get("legendre", 0.0),
            "io.read_series_csv_ms": busy.get("read_series_csv", 0.0),
            "io.bytes_read": c.get("bytes_read", 0),
            "io.write_ms": sum(busy.get(n, 0.0) for n in _WRITERS),
            "io.bytes_written": c.get("bytes_written", 0),
            "experiments.task_payload_bytes": c.get("payload", 0),
            "experiments.self_ms": self_ms.get("experiments", 0.0),
            "cli.self_ms": self_ms.get("cli", 0.0),
        }
        self._profile_args = []
        return {k: v for k, v in values.items()
                if k not in self.absent_metrics()}

    def absent_metrics(self) -> list[str]:
        return [name for name, (_, sources, _) in PER_LAYER.items()
                if not any(src in self.present for src in sources)]

    def unreadable(self) -> dict[str, float]:
        """Entry points whose arguments no longer fit the counters."""
        return {k.split(":", 1)[1]: v for k, v in self._counters.items()
                if k.startswith("unreadable:")}
