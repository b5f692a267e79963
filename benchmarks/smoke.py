"""Smoke test of the benchmark at tiny size (about a minute on two cores).

    python3 benchmarks/smoke.py

Runs every workload of BENCHMARK.json in both modes with `--tiny` and
checks that the last output line has exactly the contract keys, that every
metric BENCHMARK.json names is printed with its unit, and that every output
check passed. It then shows that the sweep checks reject a corrupted
results.csv and that the benchmark exits non-zero, printing no result, in a
directory without the package sources. Exits 1 on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run_bench

ROOT = run_bench.ROOT
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_run(workload, trace):
    script = str(Path(run_bench.__file__).relative_to(ROOT))
    proc = run([script, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, f"{workload} trace={trace} exit {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    named = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}, sorted(result["metrics"])
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        if not trace:
            assert got["value"] > 0.0, (m["name"], got)
    print(f"ok: {workload} trace={trace}: {len(named)} metrics, correct")


def check_sweep_gate():
    unit = run_bench.OUT / "fig1_sweep" / "unit"
    corrupt = run_bench.OUT / "smoke_corrupt"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(unit, corrupt)
    results = corrupt / "results.csv"
    lines = results.read_text().splitlines()
    cells = lines[1].split(",")
    cells[10] = repr(2.0 * float(cells[10]))  # MISE no longer ISB + IV
    results.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    block = dict(run_bench.WORKLOADS["fig1_sweep"].config["experiment"])
    block.update(run_bench.WORKLOADS["fig1_sweep"].tiny)
    errors = []
    run_bench.check_sweep(corrupt, block, errors)
    assert any("ISB + IV" in e for e in errors), errors
    assert any("differs from results.csv" in e for e in errors), errors
    print("ok: sweep checks reject a corrupted results.csv")


def check_without_sources():
    bare = run_bench.OUT / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(BENCH["command"][1:] + ["--workload", "fig1_sweep", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"], cwd=bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok: exit {proc.returncode} without sources, no result printed")


def main():
    for workload in BENCH["workloads"]:
        for trace in (0, 1):
            check_run(workload["name"], trace)
    check_sweep_gate()
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
