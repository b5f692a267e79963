"""Golden output digests: the bytes of one CLI cycle, a trivariate sample,
five small sweeps and the `eval` tables.

The SHA-256 of every output CSV and of its `.meta` sidecar (less the
sidecar's `build=` line) is compared with `tests/golden/digests.json`; the
`estimate` sidecars pin the tail estimate, its clamp and the clamped
nodes. The `sample` + `estimate` cycle runs at n=5000, where the curve
kernel reads the sample in 16 tiles of rows at 201 points, and its sample
is estimated a second time at k=3 on a 41-node grid without vertex
corrections. The `figures` sweeps are a small figure-1 config, the same at GPWM order k=3 (whose ML pairs still start
from the k=5 GPWM fit), the same without vertex corrections on a 41-node
grid, the same at psi 0.1 and 1 with n=51 over 29 replications, which
run in blocks of 3 with a short last block of 2, and a small figure-3
config with GPWM and ML pairs, once in process and once at `--jobs 3`,
where its 16 one-replication blocks run in the process pool; the two
must give the same CSV bytes. A `sample` at d=3 and n=7 pins the
trivariate draws, and a pipeline-2 `sample` with 5 blocks per observation
pins the scans of observations whose row total is below one batch. `eval`
runs once per theta(Q) branch, with `tail_z` and `lambda_mn` where
alpha < 1 admits them, and on trivariate and 9-variate logistic models.
Floating-point results may differ between numpy or scipy releases, so the
file records the versions it was made with and a mismatch fails naming
both. After a deliberate change of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each entry that was added, changed or removed before it writes.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import scipy

from randmax import cli

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

PAIRS = [{"pick": p, "alpha": a} for a in ("GPWM", "ML") for p in ("P", "CFG", "MD")]

CYCLE_CONFIG = {
    "sample": {"experiment": 1, "psi": 0.5, "alpha": 0.5, "n": 5000, "seed": 11},
    "estimate": {"pairs": PAIRS},
}

SWEEP_CONFIG = {
    "experiment": {
        "experiment": 1,
        "alpha": [0.5],
        "psi": [0.55, 1.0],
        "n": [50],
        "replications": 20,
        "pairs": PAIRS,
        "seed": 5,
    }
}

#: the fit settings away from their defaults, for a second estimate of the cycle's sample
SETTINGS_CONFIG = {"estimate": {"pairs": PAIRS, "k": 3, "grid_size": 41, "corrected": False}}

K3_CONFIG = {"experiment": dict(SWEEP_CONFIG["experiment"], psi=[0.1, 0.55], k=3, seed=6)}

UNCORRECTED_CONFIG = {
    "experiment": dict(SWEEP_CONFIG["experiment"], corrected=False, grid_size=41, seed=8)
}

#: blocks of 3 replications with a short last block of 2 (29 = 9 * 3 + 2); at
#: psi = 1 pipeline 1 skips the positive-stable draw of the logistic factor
BLOCKS_CONFIG = {
    "experiment": dict(
        SWEEP_CONFIG["experiment"], psi=[0.1, 1.0], n=[51], replications=29, seed=9
    )
}

#: a trivariate sample at an odd n
SAMPLE_D3_CONFIG = {
    "sample": {"experiment": 1, "psi": 0.3, "alpha": 0.6, "n": 7, "d": 3, "seed": 13}
}

#: a pipeline-2 sample of 40 observations over 5 blocks each, where about
#: half of the row totals are below the scan's batch of 64 rows
SAMPLE_P2_SMALL_CONFIG = {
    "sample": {
        "experiment": 2,
        "rho": 0.5,
        "upsilon": 1.0,
        "alpha": 0.5,
        "n": 40,
        "inner_size": 5,
        "seed": 7,
    }
}

FIG3_CONFIG = {
    "experiment": {
        "experiment": 2,
        "alpha": [0.5],
        "rho": [-0.5, 0.5],
        "upsilon": [1.0, 3.0],
        "n": [30],
        "replications": 4,
        "inner_size": 100,
        "pairs": PAIRS,
        "seed": 7,
    }
}

#: the eval keys that exist only for alpha in (0, 1)
_HEAVY_KEYS = {
    "tail_z": [[1.0, 0.0], [1.0, 1.0], [0.5, 2.0]],
    "tail_n": 50,
    "lambda_mn": [0.6, 0.85],
}

EVAL_CONFIGS = {
    "eval_frechet_heavy": dict(
        model={"family": "logistic", "psi": 0.5}, alpha=0.5, grid_size=21, **_HEAVY_KEYS
    ),
    "eval_frechet_unit": dict(model={"family": "logistic", "psi": 0.7}, alpha=1.0, grid_size=21),
    "eval_frechet_light": dict(
        model={"family": "extremal_t", "rho": 0.5, "upsilon": 2.0}, alpha=1.5, grid_size=21
    ),
    "eval_gumbel": dict(
        model={"family": "extremal_t", "rho": -0.3, "upsilon": 1.0},
        alpha=0.7,
        size_branch="gumbel",
        grid_size=21,
        **_HEAVY_KEYS,
    ),
    # d >= 3 writes no curve table; at d = 9 the scaled model's norm sums 9 >= 8
    # coordinates, where NumPy adds pairwise
    "eval_logistic_d3": dict(
        model={"family": "logistic", "psi": 0.5, "dim": 3},
        alpha=0.5,
        tail_z=[[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 2.0, 1.5]],
    ),
    "eval_logistic_d9": dict(
        model={"family": "logistic", "psi": 0.3, "dim": 9},
        alpha=0.5,
        tail_z=[[1.0] + [0.0] * 8, [1.0] * 9, [0.25 * (j + 1) for j in range(9)]],
    ),
}


def _versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _run(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"randmax {argv[0]} exited {code}")


def output_digests(workdir):
    """Run the cycle, the sweeps and the evals under `workdir`; returns
    {file: sha256}."""
    workdir = Path(workdir)

    def config(name, data):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    cycle = workdir / "cycle"
    cycle_cfg = config("cycle", CYCLE_CONFIG)
    _run(["sample", "--config", cycle_cfg, "--out", str(cycle)])
    settings = workdir / "cycle_settings"
    for out, cfg in ((cycle, cycle_cfg), (settings, config("settings", SETTINGS_CONFIG))):
        _run([
            "estimate", "--config", cfg, "--out", str(out),
            "--input", str(cycle / "sample.csv"),
        ])
    runs = [
        ("figures", name, data, [])
        for name, data in (
            ("sweep", SWEEP_CONFIG),
            ("k3", K3_CONFIG),
            ("uncorrected", UNCORRECTED_CONFIG),
            ("blocks", BLOCKS_CONFIG),
            ("fig3", FIG3_CONFIG),
        )
    ]
    runs.append(("figures", "fig3_jobs3", FIG3_CONFIG, ["--jobs", "3"]))
    runs.append(("sample", "sample_d3", SAMPLE_D3_CONFIG, []))
    runs.append(("sample", "sample_p2_small", SAMPLE_P2_SMALL_CONFIG, []))
    runs += [("eval", name, {"eval": block}, []) for name, block in EVAL_CONFIGS.items()]
    for command, name, data, extra in runs:
        _run([command, "--config", config(name, data), "--out", str(workdir / name), *extra])
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(_pinned_bytes(path)).hexdigest()
        for out in [cycle, settings] + [workdir / name for _, name, _, _ in runs]
        for path in sorted(out.glob("*.csv")) + sorted(out.glob("*.csv.meta"))
    }


def _pinned_bytes(path):
    """The bytes of an output file, less a sidecar's `build=` line, which
    names the source tree rather than anything the run computed."""
    data = path.read_bytes()
    if path.suffix != ".meta":
        return data
    return b"".join(line for line in data.splitlines(True) if not line.startswith(b"build="))


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["versions"] == _versions(), (
        f"digests were recorded with {golden['versions']}, this run has {_versions()}"
    )
    digests = output_digests(tmp_path)
    assert sorted(digests) == sorted(golden["files"])
    changed = [name for name in digests if digests[name] != golden["files"][name]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


def moved_entries(old, new):
    """Lines naming each versions or files entry of `new` that was added,
    changed or removed against `old`, two golden records."""
    lines = []
    for section in ("versions", "files"):
        before, after = old.get(section, {}), new[section]
        for name in sorted(before.keys() | after.keys()):
            if name not in before:
                lines.append(f"added   {section}: {name} {after[name]}")
            elif name not in after:
                lines.append(f"removed {section}: {name} {before[name]}")
            elif before[name] != after[name]:
                lines.append(f"changed {section}: {name} {before[name]} -> {after[name]}")
    return lines


def test_rewrite_names_what_moved():
    old = {"versions": {"numpy": "1"}, "files": {"a/x.csv": "0a", "a/y.csv": "0b", "b/z.csv": "0c"}}
    new = {"versions": {"numpy": "2"}, "files": {"a/x.csv": "0a", "a/y.csv": "1b", "c/w.csv": "0d"}}
    assert moved_entries(old, new) == [
        "changed versions: numpy 1 -> 2",
        "changed files: a/y.csv 0b -> 1b",
        "removed files: b/z.csv 0c",
        "added   files: c/w.csv 0d",
    ]
    assert moved_entries(new, new) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": _versions(), "files": output_digests(tmp)}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print("\n".join(moved_entries(old, record)) or f"no entry of {GOLDEN.name} moved")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
