"""The layer bench's quick mode: one timed call per layer at N = 2^10 in
the bench's own process and no presets, run as a fresh process."""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
LAYERS = {"gen_fgn", "gen_bfbm_increments", "window_sweep", "window_analyze",
          "surface_17q_2pairs", "full_fit", "sweep_realization",
          "rho_realization", "mf_realization", "read_series_csv_3col",
          "write_table_csv_3col", "write_json_surfaces"}


def test_quick_bench_writes_its_record(tmp_path):
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH), "--quick", "--out", str(out)],
                   check=True, stdout=subprocess.DEVNULL, timeout=60)
    assert time.perf_counter() - start < 2.0
    record = json.loads(out.read_text())
    assert set(record) == {"host", "src_lines", "quick", "repeats",
                           "processes", "layers", "presets"}
    lines = record["src_lines"]
    assert {"cli", "experiments", "total"} <= set(lines)
    assert lines["total"] == sum(v for k, v in lines.items() if k != "total")
    assert {"cpus", "usable_cpus", "cpu_model", "machine", "python",
            "numpy"} <= set(record["host"])
    assert (record["quick"], record["repeats"], record["processes"],
            record["presets"]) == (True, 1, 1, {})
    [(n, layers)] = record["layers"].items()
    assert n == "1024" and set(layers) == LAYERS
    for times in layers.values():
        assert set(times) == {"median_ms", "lowest_ms", "highest_ms"}
        assert 0.0 <= times["lowest_ms"] <= times["median_ms"] \
            <= times["highest_ms"]
