"""randmax benchmark: one workload per run, end-to-end or traced per layer.

    python3 benchmarks/run_bench.py --workload fig1_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` next to this directory and nothing is installed. Every command the
workload issues goes through `randmax.cli.main` in this process, with
outputs under `.bench_out/<workload>/`. The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it give provenance, output checks, result
digests and (traced runs) the sanity table. See benchmarks/README.md for
the workloads, every metric and how to read them.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
CURVE_GRID = 201

PAIRS_ALL = [{"pick": p, "alpha": a} for a in ("GPWM", "ML") for p in ("P", "CFG", "MD")]
PAIRS_GPWM = [{"pick": p, "alpha": "GPWM"} for p in ("P", "CFG", "MD")]


@dataclass(frozen=True)
class Workload:
    kind: str  # "sweep" runs `randmax figures`; "cli" runs sample + estimate cycles
    config: dict
    tiny: dict  # overrides of the main block for the warm-up and for --tiny runs
    jobs: int = 1

    @property
    def block(self):
        return "experiment" if self.kind == "sweep" else "sample"


# Parameters follow the acceptance-test fixtures; only the replication
# count is chosen here (fig1 keeps the fixture's 200, fig3 drops from 100 to
# 2, the schema minimum, because one pipeline-2 sample costs seconds).
WORKLOADS = {
    "fig1_sweep": Workload(
        kind="sweep",
        config={
            "experiment": {
                "experiment": 1,
                "alpha": [0.5],
                "psi": [0.1, 0.55, 1.0],
                "n": [50],
                "replications": 200,
                "pairs": PAIRS_ALL,
            }
        },
        tiny={"replications": 4},
    ),
    "fig3_sweep": Workload(
        kind="sweep",
        config={
            "experiment": {
                "experiment": 2,
                "alpha": [0.5],
                "rho": [-0.5, 0.5, 0.99],
                "upsilon": [1.0],
                "n": [50],
                "replications": 2,
                "inner_size": 500,
                "pairs": PAIRS_GPWM,
            }
        },
        tiny={"n": [6], "inner_size": 20},
        jobs=2,
    ),
    "cli_large_n": Workload(
        kind="cli",
        config={
            "sample": {"experiment": 1, "psi": 0.5, "alpha": 0.5, "n": 10_000},
            "estimate": {"pairs": PAIRS_ALL},
        },
        tiny={"n": 200},
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "fits_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "samplers.self_s": "s",
    "samplers.sample_ms": "ms",
    "samplers.cap_hits": "count",
    "estimators.self_s": "s",
    "estimators.ranks_us": "us",
    "estimators.curve_P_us": "us",
    "estimators.curve_CFG_us": "us",
    "estimators.curve_MD_us": "us",
    "estimators.gpwm_us": "us",
    "estimators.ml_us": "us",
    "estimators.invert_us": "us",
    "estimators.curve_cells_per_s": "1/s",
    "estimators.curve_bytes_per_call_computed": "bytes",
    "estimators.gpwm_weights_calls": "count",
    "estimators.node_clamps": "count",
    "estimators.alpha_clamps": "count",
    "specfun.self_s": "s",
    "harness.self_s": "s",
    "harness.mise_reduce_us": "us",
    "harness.combo_s_max": "s",
    "harness.pool_cpu_util": "ratio",
    "config.load_ms": "ms",
    "cli.self_s": "s",
    "cli.csv_parse_ms": "ms",
    "cli.csv_write_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

# Reference figures at n=50, grid 201: (ROADMAP.md "Recent", an earlier
# measurement). Traced fig1 and fig3 runs print theirs beside them.
SANITY_REFERENCE = {
    "estimators.curve_P_us": (87, 66),
    "estimators.curve_CFG_us": (139, 87),
    "estimators.curve_MD_us": (203, 123),
    "estimators.gpwm_us": (146, 84),
    "estimators.ml_us": (280, 206),
    "estimators.invert_us": (25, 14),
    "replication_ms": (1.0, 1.7),
    "pipeline2_sample_s": (2.2, 3.3),
}

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import randmax.cli
from randmax.config import load_config
t1 = time.perf_counter()
load_config(sys.argv[1])
print(repr((time.perf_counter() - t1) * 1e3))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed set-up)."""


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def unit_seed(seed, index):
    """Seed of the index-th unit of work, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _import_randmax():
    if not (SRC / "randmax" / "cli.py").is_file():
        raise BenchError(f"no randmax sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import randmax.cli

    if Path(randmax.cli.__file__).resolve().parent != (SRC / "randmax").resolve():
        raise BenchError(f"imported randmax from {randmax.cli.__file__}, not {SRC}")
    return randmax.cli


# -- provenance ----------------------------------------------------------------


def _git_commit():
    """Commit of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _l3_bytes():
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return size
    except (ValueError, OSError):
        pass
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        return int(text.rstrip("K")) * 1024
    except (OSError, ValueError):
        return 0


def provenance():
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    l3 = _l3_bytes()
    temp_bytes = 10_000 * CURVE_GRID * 8
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": l3,
        "python": sys.version.split()[0],
        **versions,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "curve_temp_bytes_n1e4": temp_bytes,
        "curve_temp_over_l3": temp_bytes / l3 if l3 else None,
    }


# -- output checks ---------------------------------------------------------------


def envelope_lower(w, alpha):
    """Lower edge max(p1, p2) / (p1 + p2), p = t^(1/alpha), of the A* envelope."""
    p1 = (1.0 - w) ** (1.0 / alpha)
    p2 = w ** (1.0 / alpha)
    return np.maximum(p1, p2) / (p1 + p2)


def mise_ceiling(alpha, grid=CURVE_GRID):
    """Largest integrated squared error two curves inside the A* envelope
    [lower, 1] can have; the truth and every clipped fit lie inside it."""
    w = np.linspace(0.0, 1.0, grid)
    return float(np.trapezoid((1.0 - envelope_lower(w, alpha)) ** 2, w))


def _read_table(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_sweep(outdir, block, errors):
    """Check one `randmax figures` output; returns (attempted, failed, digest)."""
    n_combos = len(block["alpha"]) * len(block["n"]) * (
        len(block["psi"]) if block["experiment"] == 1 else len(block["rho"]) * len(block["upsilon"])
    )
    attempted = n_combos * len(block["pairs"]) * block["replications"]
    try:
        rows = _read_table(outdir / "results.csv")
    except (OSError, IndexError) as exc:
        errors.append(f"results.csv unreadable: {exc}")
        return attempted, attempted, None
    if len(rows) != n_combos * len(block["pairs"]):
        errors.append(f"results.csv has {len(rows)} rows, expected {n_combos * len(block['pairs'])}")
    failed = 0
    mise_by_key = {}
    for row in rows:
        failed += int(row["failures"])
        mise, isb, iv = float(row["MISE"]), float(row["ISB"]), float(row["IV"])
        key = (row["psi_or_rho"], row["estimator_pair"])
        mise_by_key[key] = row["MISE"]
        if not np.isfinite(mise):
            errors.append(f"non-finite MISE in row {key}")
            continue
        if abs(mise - (isb + iv)) > 1e-9 * abs(mise) + 1e-15 or isb < 0.0 or iv < 0.0:
            errors.append(f"MISE != ISB + IV in row {key}: {mise!r} vs {isb!r} + {iv!r}")
        ceiling = mise_ceiling(float(row["alpha"]))
        if mise > ceiling:
            errors.append(f"MISE {mise!r} above envelope ceiling {ceiling!r} in row {key}")
    tables = sorted(outdir.glob("figure_*.csv"))
    methods = {p["alpha"] for p in block["pairs"]}
    expected = {f"figure_mise_{m.lower()}.csv" for m in methods}
    if methods == {"GPWM", "ML"}:
        expected.add("figure_ratio_gpwm_ml.csv")
    if {p.name for p in tables} != expected:
        errors.append(f"figure tables {[p.name for p in tables]}, expected {sorted(expected)}")
    for table in tables:
        if not table.name.startswith("figure_mise_"):
            continue
        method = table.name[len("figure_mise_") : -len(".csv")].upper()
        for row in _read_table(table):
            key = (row["psi_or_rho"], f"{row['pick']}-{method}")
            if mise_by_key.get(key) != row["MISE"]:
                errors.append(f"{table.name} MISE for {key} differs from results.csv")
    return attempted, failed, _digest([outdir / "results.csv", *tables])


def _check_sample_round_trip(path, errors):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    rebuilt = [lines[0]] + [",".join(repr(float(c)) for c in line.split(",")) for line in lines[1:]]
    if "\n".join(rebuilt) + "\n" != text:
        errors.append("sample.csv does not round-trip bit-exactly through float parsing")
    return len(lines) - 1


def check_cli_cycle(outdir, config, errors):
    """Check one sample + estimate cycle; returns the result digest."""
    sample_csv = outdir / "sample.csv"
    rows = _check_sample_round_trip(sample_csv, errors)
    if rows != config["sample"]["n"]:
        errors.append(f"sample.csv has {rows} rows, expected {config['sample']['n']}")
    paths = [sample_csv]
    for pair in config["estimate"]["pairs"]:
        label = f"{pair['pick']}-{pair['alpha']}"
        path = outdir / f"estimate_{label}.csv"
        paths.append(path)
        try:
            table = _read_table(path)
            w = np.array([float(r["t"]) for r in table])
            a_star = np.array([float(r["A_star_hat"]) for r in table])
            alpha_hat = float(table[0]["alpha_hat"])
        except (OSError, IndexError, KeyError, ValueError) as exc:
            errors.append(f"{path.name} does not parse: {exc}")
            continue
        if len(table) != CURVE_GRID or any(r["estimator_pair"] != label for r in table):
            errors.append(f"{path.name}: {len(table)} rows or wrong estimator_pair")
        if not 0.0 < alpha_hat < 1.0:
            errors.append(f"{path.name}: alpha_hat {alpha_hat!r} outside (0, 1)")
            continue
        lower = envelope_lower(w, alpha_hat)
        if not np.all((a_star >= lower - 1e-12) & (a_star <= 1.0 + 1e-12)):
            errors.append(f"{path.name}: A* leaves its envelope [max(p1,p2)/(p1+p2), 1]")
    return _digest(paths)


# -- running units of work ------------------------------------------------------


@dataclass
class UnitResult:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    digest: str


class Runner:
    """Writes a workload's configs and runs its units of work through cli.main."""

    def __init__(self, name, workload, cli, tiny):
        self.name = name
        self.tiny = tiny
        self.workload = workload
        self.cli = cli
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self._scaled(tiny)
        self.config_path = self._write_config("config.json", self.config)
        self.warmup_path = self._write_config("warmup.json", self._scaled(True))
        self.errors = []

    def _scaled(self, tiny):
        config = json.loads(json.dumps(self.workload.config))
        if tiny:
            config[self.workload.block].update(self.workload.tiny)
        return config

    def _write_config(self, filename, config):
        path = self.dir / filename
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return path

    def measure_setup(self):
        """Median cold start (s) and median load_config time (ms) in fresh
        interpreters; the first, unmeasured start fills the bytecode cache."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        walls, loads = [], []
        for i in range(SETUP_REPEATS + 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(self.config_path)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
            if i:
                walls.append(wall)
                loads.append(float(proc.stdout.strip()))
        return statistics.median(walls), statistics.median(loads)

    def warm_up(self):
        """Run the tiny form of the workload once so lazy imports and
        allocator pools are in place before anything is timed."""
        self.run_unit(0, 0, self.workload.jobs, config_path=self.warmup_path, check=False)

    def run_unit(self, seed, index, jobs, config_path=None, check=True):
        config_path = config_path or self.config_path
        outdir = self.dir / "unit"
        shutil.rmtree(outdir, ignore_errors=True)
        s = str(unit_seed(seed, index))
        common = ["--config", str(config_path), "--out", str(outdir)]
        cpu0 = _cpu_s()
        start = time.perf_counter()
        if self.workload.kind == "sweep":
            codes = [self.cli.main(["figures", *common, "--seed", s, "--jobs", str(jobs)])]
        else:
            codes = [self.cli.main(["sample", *common, "--seed", s])]
            if codes[0] == 0:
                sample_csv = str(outdir / "sample.csv")
                codes.append(self.cli.main(["estimate", *common, "--input", sample_csv]))
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        if not check:
            return None
        errors = []
        if any(code != 0 for code in codes):
            errors.append(f"unit {index}: exit codes {codes}")
        if self.workload.kind == "sweep":
            attempted, failed, digest = check_sweep(outdir, self.config["experiment"], errors)
        else:
            attempted = len(self.config["estimate"]["pairs"])
            failed = attempted if errors else 0
            digest = None if errors else check_cli_cycle(outdir, self.config, errors)
        self.errors.extend(errors)
        return UnitResult(wall, cpu, attempted, failed, digest)

    def run_for(self, seed, seconds, jobs):
        """Run units 0, 1, ... until `seconds` have passed (at least one)."""
        results = []
        start = time.perf_counter()
        while not results or time.perf_counter() - start < seconds:
            results.append(self.run_unit(seed, len(results), jobs))
        return results


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _totals(results):
    return sum(r.attempted for r in results), sum(r.failed for r in results)


def end_to_end(runner, seed, seconds):
    setup_s, _ = runner.measure_setup()
    runner.warm_up()
    results = runner.run_for(seed, seconds, runner.workload.jobs)
    attempted, failed = _totals(results)
    total_wall = sum(r.wall_s for r in results)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in results),
        "fits_per_s": (attempted - failed) / total_wall,
        "cpu_s": statistics.median(r.cpu_s for r in results),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return results, {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


# -- traced run -------------------------------------------------------------------


def _curve_name(args, kwargs):
    pick = args[2] if len(args) > 2 else kwargs.get("pick", "?")
    return f"curve_{pick}"


class LayerProbe:
    """Wraps the public functions of each randmax module at the bindings
    its callers use, and collects the counters those calls return."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.curve_cells = []
        self.node_clamps = 0
        self.alpha_clamps = 0
        self.cap_hits = 0

    def install(self):
        """Wrap every binding; `tracer.restore()` removes the wrappers."""
        import randmax.cli as cli
        import randmax.estimators as est
        import randmax.harness as harness
        import randmax.samplers as samplers

        wrap = self.tracer.wrap
        wrap(cli, "main", "cli", "main")
        for name in ("load_config", "require_block", "pairs_from_block", "experiment_config_from_block"):
            wrap(cli, name, "config", name)
        wrap(cli, "run_experiment", "harness", "run_experiment", self._on_sweep)
        for name in ("results_csv_text", "figure_tables", "run_report_text"):
            wrap(cli, name, "harness", name)
        wrap(harness, "mise_decompose", "harness", "mise_decompose")
        for owner in (cli, harness):
            for name in ("sample_experiment1", "sample_experiment2"):
                wrap(owner, name, "samplers", "sample", self._on_sample)
        wrap(samplers.PairedSample, "from_csv", "csv", "csv_parse")
        wrap(samplers.PairedSample, "to_csv", "csv", "csv_write")
        wrap(est.CurveEstimate, "to_csv", "csv", "csv_write")
        wrap(cli, "composite_estimate", "estimators", "composite_estimate", self._on_estimate)
        for owner in (harness, est):
            wrap(owner, "pseudo_uniforms", "estimators", "ranks")
            wrap(owner, "pickands_curve_raw", "estimators", _curve_name, self._on_curve)
            wrap(owner, "endpoint_correct", "estimators", "endpoint_correct")
            wrap(owner, "estimate_alpha", "estimators", "estimate_alpha")
            wrap(owner, "clamp_alpha", "estimators", "clamp_alpha")
            wrap(owner, "invert_curve", "estimators", "invert")
        wrap(est, "gpwm_alpha", "estimators", "gpwm")
        wrap(est, "ml_alpha", "estimators", "ml")
        wrap(est, "gpwm_weights", "estimators", "gpwm_weights")
        for name in ("regularized_lower_gamma", "ln_gamma"):
            wrap(est, name, "specfun", name)

    def _on_curve(self, args, kwargs, result):
        u = args[0] if args else kwargs["u"]
        w = args[1] if len(args) > 1 else kwargs["w"]
        self.curve_cells.append(int(np.shape(u)[0]) * int(np.size(w)))

    def _on_sample(self, args, kwargs, sample):
        self.cap_hits += int(getattr(sample, "meta", {}).get("cap_hits", 0))

    def _on_estimate(self, args, kwargs, estimate):
        self.node_clamps += int(getattr(estimate, "n_clamped", 0))
        self.alpha_clamps += int(getattr(estimate, "alpha_clamped", False))

    def _on_sweep(self, args, kwargs, results):
        for r in results:
            self.node_clamps += int(getattr(r, "clamps", 0))
            self.alpha_clamps += int(getattr(r, "alpha_clamps", 0))


def _median_call(tracer, name, scale):
    d = tracer.durations(name)
    return float(np.median(d)) * scale if d.size else 0.0


@contextmanager
def _combo_times(sink):
    """Collect ComboResult.wall_ms of every sweep run inside the block."""
    import randmax.cli as cli

    original = cli.run_experiment

    def capture(*args, **kwargs):
        results = original(*args, **kwargs)
        sink.extend(getattr(r, "wall_ms", 0.0) for r in results)
        return results

    cli.run_experiment = capture
    try:
        yield
    finally:
        cli.run_experiment = original


def traced(runner, seed, seconds):
    """Per-layer metrics. A pooled workload first runs untraced at its own
    width for the pool figures. Then untraced and traced units at jobs=1
    alternate over the same unit seeds, so host-speed drift hits both alike;
    the traced ones give the layer times, the pair the tracing overhead."""
    _, load_ms = runner.measure_setup()
    runner.warm_up()
    jobs = runner.workload.jobs
    combo_ms = []
    pooled = []
    if jobs > 1:
        with _combo_times(combo_ms):
            pooled = runner.run_for(seed, seconds / 3.0, jobs)
    tracer = Tracer()
    probe = LayerProbe(tracer)
    serial, traced_units = [], []
    start = time.perf_counter()
    while not serial or (
        len(serial) < len(pooled) if pooled else time.perf_counter() - start < seconds * 2 / 3
    ):
        with nullcontext() if pooled else _combo_times(combo_ms):
            serial.append(runner.run_unit(seed, len(serial), 1))
        probe.install()
        try:
            traced_units.append(runner.run_unit(seed, len(traced_units), 1))
        finally:
            tracer.restore()
    pool_units = pooled or serial
    pool_cpu_util = sum(r.cpu_s for r in pool_units) / (jobs * sum(r.wall_s for r in pool_units))
    k = len(traced_units)
    tracer.write_csv(runner.dir / "spans.csv")

    cells = np.array(probe.curve_cells, dtype=float)
    curve_s = sum(tracer.durations(f"curve_{p}").sum() for p in ("P", "CFG", "MD"))
    traced_wall = statistics.mean(r.wall_s for r in traced_units)
    serial_wall = statistics.mean(r.wall_s for r in serial)
    values = {
        "samplers.self_s": tracer.layer_self_s("samplers") / k,
        "samplers.sample_ms": _median_call(tracer, "sample", 1e3),
        "samplers.cap_hits": probe.cap_hits / k,
        "estimators.self_s": tracer.layer_self_s("estimators") / k,
        "estimators.ranks_us": _median_call(tracer, "ranks", 1e6),
        "estimators.curve_P_us": _median_call(tracer, "curve_P", 1e6),
        "estimators.curve_CFG_us": _median_call(tracer, "curve_CFG", 1e6),
        "estimators.curve_MD_us": _median_call(tracer, "curve_MD", 1e6),
        "estimators.gpwm_us": _median_call(tracer, "gpwm", 1e6),
        "estimators.ml_us": _median_call(tracer, "ml", 1e6),
        "estimators.invert_us": _median_call(tracer, "invert", 1e6),
        "estimators.curve_cells_per_s": float(cells.sum() / curve_s) if curve_s else 0.0,
        "estimators.curve_bytes_per_call_computed": float(8.0 * cells.mean()) if cells.size else 0.0,
        "estimators.gpwm_weights_calls": tracer.count("gpwm_weights") / k,
        "estimators.node_clamps": probe.node_clamps / k,
        "estimators.alpha_clamps": probe.alpha_clamps / k,
        "specfun.self_s": tracer.layer_self_s("specfun") / k,
        "harness.self_s": tracer.layer_self_s("harness") / k,
        "harness.mise_reduce_us": _median_call(tracer, "mise_decompose", 1e6),
        "harness.combo_s_max": max(combo_ms, default=0.0) / 1e3,
        "harness.pool_cpu_util": pool_cpu_util,
        "config.load_ms": load_ms,
        "cli.self_s": tracer.layer_self_s("cli") / k,
        "cli.csv_parse_ms": tracer.durations("csv_parse").sum() * 1e3 / k,
        "cli.csv_write_ms": tracer.durations("csv_write").sum() * 1e3 / k,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / serial_wall - 1.0,
    }
    for name in sorted(tracer.absent):
        print(f"absent: {name}")
    if not runner.tiny:
        _print_sanity(runner, values, serial_wall)
    metrics = {k: _metric(v, PER_LAYER_UNITS[k]) for k, v in values.items()}
    return pooled + serial + traced_units, metrics


def _print_sanity(runner, values, serial_wall):
    """Print measured figures beside the ROADMAP and earlier references."""
    rows = []
    block = runner.config.get("experiment", {})
    if runner.name == "fig1_sweep":
        for key in (
            "estimators.curve_P_us",
            "estimators.curve_CFG_us",
            "estimators.curve_MD_us",
            "estimators.gpwm_us",
            "estimators.ml_us",
            "estimators.invert_us",
        ):
            rows.append((key, values[key]))
        reps = len(block["psi"]) * block["replications"]
        rows.append(("replication_ms", serial_wall * 1e3 / reps))
    elif runner.name == "fig3_sweep":
        rows.append(("pipeline2_sample_s", values["samplers.sample_ms"] / 1e3))
    for key, measured in rows:
        roadmap, earlier = SANITY_REFERENCE[key]
        ratio = measured / roadmap
        flag = "  (over 2x from ROADMAP; see README)" if not 0.5 <= ratio <= 2.0 else ""
        print(
            f"sanity: {key} measured {measured:.4g} roadmap {roadmap} "
            f"earlier {earlier} ratio {ratio:.2f}{flag}"
        )


# -- entry point -------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="run the tiny warm-up size (smoke test only)"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = _import_randmax()
        print(json.dumps({"provenance": provenance()}))
        runner = Runner(args.workload, WORKLOADS[args.workload], cli, args.tiny)
        if args.trace:
            results, metrics = traced(runner, args.seed, args.seconds)
        else:
            results, metrics = end_to_end(runner, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted, failed = _totals(results)
    digests = [r.digest for r in results if r.digest]
    print(json.dumps({"units": len(results), "results_sha256": digests[0] if digests else None}))
    print(json.dumps({"fail_frac": failed / attempted, "check_errors": runner.errors[:20]}))
    print(
        json.dumps(
            {
                "correct": not runner.errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
