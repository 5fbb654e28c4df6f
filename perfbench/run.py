"""Benchmark of the ``dpxa`` program through its entry point ``dpxa.cli.main``.

Run from the root of a dpxa checkout (the package is imported from
``src/``; nothing needs building):

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One closed-loop client in this process calls ``cli.main`` once per op; the
next op starts when the previous one returns. Inputs are made from
``--seed`` before timing starts. The first op is untimed, so lazy imports
and caches settle, and its outputs are the baseline every later op of the
run must reproduce. An op fails if it raises, exits non-zero or its outputs
fail the check in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s`` (ops over the
time spent in them), ``op_p50_ms``, ``setup_s`` (median wall time of a
fresh interpreter running ``import dpxa.cli``, sampled between ops across
the run; that time does not count against the ops') and ``peak_rss_mb``
(largest resident set of any single process: this one or a child, such as
a pool worker; not the sum of processes alive at once). The three times
are reported at the reference host speed of ``calibrate.py``: the host
kernel runs before and after every op and set-up sample, and each time is
scaled by how fast the kernel ran around it. The times as measured are
printed too. ``--trace 1`` runs every
workload at ``--jobs 1``, alternating untraced and traced ops, and reports
the per-layer metrics of ``tracer.py`` as medians over the traced ops plus
the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from calibrate import REFERENCE_S, HostSpeed
from tracer import PER_LAYER, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WARM_UP_POLICY = ("1 untimed op first; every later op must reproduce its "
                  "outputs")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_program():
    """Import ``dpxa.cli`` from this checkout's ``src/``, or exit non-zero."""
    entry = SRC / "dpxa" / "cli.py"
    if not entry.is_file():
        sys.exit(f"perfbench: {entry.relative_to(ROOT)} not found; run from "
                 "the root of a dpxa checkout")
    sys.path.insert(0, str(SRC))
    from dpxa import cli
    if Path(cli.__file__).resolve() != entry.resolve():
        sys.exit(f"perfbench: imported dpxa from {cli.__file__}, "
                 f"not from {entry}")
    return cli


# --------------------------------------------------------------------------- #
# one op

class Op(NamedTuple):
    """Seconds spent in one ``cli.main`` call and what its check found."""

    seconds: float
    problems: list[str]
    outputs: dict | None


def run_op(cli, workload, source: Path, out: Path, jobs: int,
           seed: int | None, warm, tracer=None) -> Op:
    """One timed ``cli.main`` call on ``source`` writing into ``out``, then
    the check of its outputs (untimed)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = workload.argv(source, out, jobs)
    sink = io.StringIO()
    code, error = None, None
    gc.collect()  # the previous op's garbage is not this op's cost
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        stack.enter_context(contextlib.redirect_stdout(sink))
        stack.enter_context(contextlib.redirect_stderr(sink))
        start = time.perf_counter()
        try:
            code = tracer.run_op(cli.main, argv) if tracer else cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raising op is a failed op
            error = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        lines = sink.getvalue().strip().splitlines()
        error = f"exit code {code}: {lines[-1] if lines else ''}"
    if error is not None:
        return Op(seconds, [error], None)
    try:
        outputs = workload.read_outputs(out)
    except (OSError, ValueError, KeyError) as exc:
        return Op(seconds, [f"unreadable outputs: {exc!r}"], None)
    return Op(seconds, workload.check(outputs, warm, seed), outputs)


# --------------------------------------------------------------------------- #
# measurements

def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports ``dpxa.cli`` and
    exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dpxa.cli"], cwd=ROOT,
                   env=env, check=True, timeout=SETUP_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of any single process: this one, or a child
    waited for (a pool worker, or a ``setup_s`` interpreter, which imports
    no more than this process did and so never sets the maximum). It is
    not the sum of the processes alive at one time. Linux reports
    kibibytes."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def tail_percentile(samples: list[float]) -> str:
    """The highest whole percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n < 20:
        return f"n/a: {n} ops, a tail percentile needs at least 20"
    p = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    beyond = n - math.ceil(n * p / 100)
    return f"p{p} = {value * 1e3:.4f} ms ({n} ops, {beyond} beyond)"


def run_record(args, jobs: int, timed_ops: int) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS
                             if k in os.environ},
        "timed_ops": timed_ops,
        "warm_up": WARM_UP_POLICY,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# --------------------------------------------------------------------------- #
# runs

class Speeds:
    """Seconds of each timed op and each set-up sample, as measured and at
    the reference speed of the host kernel run on both sides of it."""

    def __init__(self) -> None:
        self.host = HostSpeed()
        self.ops: list[tuple[float, float]] = []
        self.setups: list[tuple[float, float]] = []

    def add(self, samples: list, seconds: float) -> None:
        samples.append((seconds, seconds * self.host.scale()))


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory under ``WORK`` for inputs and outputs, removed on
    exit."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def benchmark(cli, args) -> dict:
    workload = WORKLOADS[args.workload]
    jobs = 1 if args.trace else workload.jobs
    with scratch_dir(workload.name) as workdir:
        source = workload.prepare(workdir, args.seed)
        out = workdir / "out"
        tracer = Tracer() if args.trace else None

        def op(traced=False):
            return run_op(cli, workload, source, out, jobs, args.seed, warm,
                          tracer if traced else None)

        warm = None
        first = op()
        warm = first.outputs if not first.problems else None
        ops = [first]
        timed, traced_ops, layer_values = [], [], []
        speed = None if args.trace else Speeds()
        setup_every = args.seconds / SETUP_REPEATS
        deadline = time.perf_counter() + args.seconds
        while not timed or time.perf_counter() < deadline:
            result = op()
            ops.append(result)
            timed.append(result.seconds)
            if args.trace:
                result = op(traced=True)
                ops.append(result)
                traced_ops.append(result.seconds)
                layer_values.append(tracer.op_metrics())
                continue
            speed.add(speed.ops, result.seconds)
            # set-up samples spread over the run, outside the ops' time
            while (len(speed.setups) < SETUP_REPEATS
                   and len(speed.setups) * setup_every <= sum(timed)):
                speed.add(speed.setups, setup_seconds())
                deadline += speed.setups[-1][0]
        while not args.trace and len(speed.setups) < SETUP_REPEATS:
            speed.add(speed.setups, setup_seconds())
        return report(args, workload, jobs, ops, timed, traced_ops,
                      layer_values, tracer, speed)


def report(args, workload, jobs, ops, timed, traced_ops, layer_values,
           tracer, speed) -> dict:
    failed = [op for op in ops if op.problems]
    print(f"workload {workload.name}: seed {args.seed}, jobs {jobs}, "
          f"{len(timed)} timed ops after 1 untimed warm-up op")
    for op in failed[:5]:
        print(f"  failed op: {'; '.join(op.problems)}")
    print("run_record " + json.dumps(run_record(args, jobs, len(timed)),
                                     sort_keys=True))
    if args.trace:
        metrics = per_layer(workload, traced_ops, timed, layer_values, tracer)
    else:
        metrics = end_to_end(speed)
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':38s} {len(failed) / len(ops):>14.6g} ratio "
          f"({len(failed)} failed of {len(ops)} attempted)")
    return {"correct": not failed, "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}


def end_to_end(speed) -> dict:
    measured, scaled = zip(*speed.ops)
    setups_measured, setups_scaled = zip(*speed.setups)
    kernel = speed.host.samples
    print(f"  host kernel: median {statistics.median(kernel) * 1e3:.4f} ms "
          f"over {len(kernel)} runs, {REFERENCE_S * 1e3:g} ms at the "
          "reference speed")
    print("  as measured: "
          f"ops_per_s {len(measured) / sum(measured):.6g} 1/s, op_p50_ms "
          f"{statistics.median(measured) * 1e3:.6g} ms, setup_s "
          f"{statistics.median(setups_measured):.6g} s")
    print("  setup_s samples as measured: "
          + ", ".join(f"{s:.4f}" for s in setups_measured))
    if len(measured) >= 2:
        q1, q2, q3 = statistics.quantiles(measured, n=4)
        print(f"  op latency quartiles as measured: {q1 * 1e3:.4f} / "
              f"{q2 * 1e3:.4f} / {q3 * 1e3:.4f} ms, "
              f"min {min(measured) * 1e3:.4f} ms")
    print(f"  op latency tail as measured: {tail_percentile(list(measured))}")
    print(f"  op latency tail at the reference speed: "
          f"{tail_percentile(list(scaled))}")
    values = {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "setup_s": statistics.median(setups_scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(workload, traced_ops, untraced_ops, layer_values,
              tracer) -> dict:
    absent = tracer.absent_metrics()
    if tracer.absent:
        print(f"  absent entry points: {', '.join(tracer.absent)}")
    if absent:
        print(f"  absent metrics (reported as 0): {', '.join(absent)}")
    for name, count in tracer.unreadable().items():
        print(f"  {name}: arguments not understood in {count} calls")
    metrics = {}
    for name, (unit, _, moves) in PER_LAYER.items():
        samples = [values[name] for values in layer_values if name in values]
        value = statistics.median(samples) if samples else 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:38s} should move: {moves}")
    overhead = (statistics.median(traced_ops)
                / statistics.median(untraced_ops) - 1.0) * 100.0
    print(f"  op p50 untraced {statistics.median(untraced_ops) * 1e3:.4f} ms, "
          f"traced {statistics.median(traced_ops) * 1e3:.4f} ms "
          f"({len(untraced_ops)} of each)")
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    metrics["trace.absent_metrics"] = {"value": len(absent), "unit": "count"}
    for name, expected in workload.baseline_counts.items():
        if name in absent:
            continue
        got = metrics[name]["value"]
        if name == "detrend.profile_sets":
            got /= workload.realizations
        verdict = "as at baseline" if math.isclose(got, expected) \
            else "differs from baseline"
        print(f"  per realization {name} = {got:.6g} "
              f"(baseline {expected:.6g}): {verdict}")
    write_spans(tracer, workload.name)
    return metrics


def write_spans(tracer, name: str) -> None:
    path = WORK / f"spans-{name}.jsonl"
    fields = ("op", "id", "parent", "layer", "name", "start", "end")
    with path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dict(zip(fields, span))) + "\n")
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process; one table of their metrics."""
    rows, code = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=args.seconds * 4 + 300)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        rate = result["failed"] / result["attempted"]
        rows.append((name, result["metrics"], rate))
    print()
    for name, metrics, rate in rows:
        cells = [f"{k} {m['value']:.6g} {m['unit']}"
                 for k, m in metrics.items()]
        print(f"{name:8s} " + "  ".join(cells) + f"  error_rate {rate:g} ratio")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = load_program()
    result = benchmark(cli, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
