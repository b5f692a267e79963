"""Golden output digests: the bytes of one CLI cycle and one small sweep.

The SHA-256 of every output CSV (sidecars excluded: they carry the build)
is compared with `tests/golden/digests.json`. The `sample` + `estimate`
cycle runs at n=5000, where the curve kernel works in more than one chunk
of simplex points, and the `figures` sweep is a small figure-1 config.
Floating-point results may differ between numpy or scipy releases, so the
file records the versions it was made with and a mismatch fails naming
both. After a deliberate change of output, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
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


def _versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _run(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"randmax {argv[0]} exited {code}")


def output_digests(workdir):
    """Run the cycle and the sweep under `workdir`; returns {file: sha256}."""
    workdir = Path(workdir)
    cycle_cfg = workdir / "cycle.json"
    cycle_cfg.write_text(json.dumps(CYCLE_CONFIG), encoding="utf-8")
    sweep_cfg = workdir / "sweep.json"
    sweep_cfg.write_text(json.dumps(SWEEP_CONFIG), encoding="utf-8")
    cycle, sweep = workdir / "cycle", workdir / "sweep"
    _run(["sample", "--config", str(cycle_cfg), "--out", str(cycle)])
    _run([
        "estimate", "--config", str(cycle_cfg), "--out", str(cycle),
        "--input", str(cycle / "sample.csv"),
    ])
    _run(["figures", "--config", str(sweep_cfg), "--out", str(sweep)])
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for out in (cycle, sweep)
        for path in sorted(out.glob("*.csv"))
    }


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["versions"] == _versions(), (
        f"digests were recorded with {golden['versions']}, this run has {_versions()}"
    )
    digests = output_digests(tmp_path)
    assert sorted(digests) == sorted(golden["files"])
    changed = [name for name in digests if digests[name] != golden["files"][name]]
    assert not changed, f"outputs differ from the golden digests: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": _versions(), "files": output_digests(tmp)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
