"""Monte Carlo experiment driver.

Sweeps the parameter grids of the two sampling pipelines, runs R independent
replications per parameter combination, fits every requested composite
estimator to each replication, and reduces the fitted inverse-transform
curves against the analytic truth into MISE and its integrated squared bias
and integrated variance parts (curve integrals use the trapezoid rule on the
edge coordinate, so MISE = ISB + IV holds exactly at grid level).

Reproducibility: each replication draws from a Philox stream whose id is a
64-bit hash of the combination's parameter values and the replication index,
keyed by the master seed. Streams therefore do not depend on the position of
a combination within the sweep (extending a grid never perturbs existing
results) nor on how replications are scheduled, and reductions accumulate in
replication order, so outputs are byte-identical at any parallelism width.
Replications run in blocks of consecutive indices (about eight per worker):
a block draws each of its samples from that replication's stream and fits
them all in one estimators.fit_pairs call, which shares the curve kernel's
level tables across the block. Fits do not depend on the block they fall
in, so the block size moves no output either.
Per-replication estimation failures are excluded and counted, never imputed;
a combination with more than 20% failures is flagged in the run report.
"""

import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .depcore import ExtremalT, Logistic, edge_grid
from .errors import DomainError, EstimationError
from .estimators import EstimatorPair, fit_pairs
from .samplers import RngStream, sample_experiment1, sample_experiment2

__all__ = [
    "EstimatorPair",
    "ExperimentConfig",
    "Combo",
    "ComboResult",
    "enumerate_combos",
    "replication_stream",
    "truth_model",
    "truth_curve",
    "mise_decompose",
    "run_experiment",
    "results_csv_text",
    "figure_tables",
    "run_report_text",
]

_FAILURE_FLAG_FRACTION = 0.20


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; see the module docstring for semantics.

    For experiment 1 the dependence grid is `psis`; for experiment 2 it is
    `rhos` x `upsilons` with `inner_size` blocks per observation.
    """

    experiment: int
    alphas: tuple
    sizes: tuple
    replications: int
    pairs: tuple
    psis: tuple = ()
    rhos: tuple = ()
    upsilons: tuple = ()
    inner_size: int = 500
    k: int = 5
    grid_size: int = 201
    corrected: bool = True
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.experiment not in (1, 2):
            raise DomainError(f"experiment must be 1 or 2, got {self.experiment!r}")
        if not self.alphas or any(not (0.0 < a < 1.0) for a in self.alphas):
            raise DomainError("alpha grid must be nonempty with values in (0,1)")
        if self.experiment == 1:
            if not self.psis or any(not (0.0 < p <= 1.0) for p in self.psis):
                raise DomainError("psi grid must be nonempty with values in (0,1]")
        else:
            if not self.rhos or any(not (-1.0 < r < 1.0) for r in self.rhos):
                raise DomainError("rho grid must be nonempty with values in (-1,1)")
            if not self.upsilons or any(u <= 0.0 for u in self.upsilons):
                raise DomainError("upsilon set must be nonempty with positive values")
            if int(self.inner_size) < 1:
                raise DomainError("inner replication count must be >= 1")
        if not self.sizes or any(int(n) < 2 for n in self.sizes):
            raise DomainError("sample-size list must be nonempty with n >= 2")
        if int(self.replications) < 2:
            raise DomainError("need at least 2 replications")
        if not self.pairs:
            raise DomainError("need at least one estimator pair")
        if int(self.grid_size) < 3 or int(self.grid_size) % 2 == 0:
            raise DomainError("grid size must be an odd integer >= 3 so w = 1/2 is a node")
        if int(self.k) < 2:
            raise DomainError("GPWM moment order must be >= 2")
        if int(self.jobs) < 1:
            raise DomainError("parallelism width must be >= 1")


@dataclass(frozen=True)
class Combo:
    experiment: int
    alpha: float
    psi_or_rho: float
    upsilon: float  # NaN for experiment 1
    n: int


def enumerate_combos(config):
    combos = []
    for alpha in config.alphas:
        if config.experiment == 1:
            for psi in config.psis:
                for n in config.sizes:
                    combos.append(Combo(1, float(alpha), float(psi), float("nan"), int(n)))
        else:
            for ups in config.upsilons:
                for rho in config.rhos:
                    for n in config.sizes:
                        combos.append(Combo(2, float(alpha), float(rho), float(ups), int(n)))
    return combos


# -- stream derivation -------------------------------------------------------

_U64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _float_bits(x):
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def replication_stream(seed, combo, rep):
    """Philox stream for one replication, keyed by the combination's values
    (not its sweep position) and the replication index."""
    h = _splitmix64(0xA076_1D64_78BD_642F ^ combo.experiment)
    for bits in (
        _float_bits(combo.alpha),
        _float_bits(combo.psi_or_rho),
        _float_bits(combo.upsilon),
        combo.n & _U64,
        rep & _U64,
    ):
        h = _splitmix64(h ^ bits)
    return RngStream(seed=seed, stream_id=h)


# -- truth -------------------------------------------------------------------


def truth_model(combo):
    """Base dependence model of the underlying observations for a combination."""
    if combo.experiment == 1:
        return Logistic(combo.psi_or_rho)
    return ExtremalT(combo.psi_or_rho, combo.upsilon)


def truth_curve(combo, w):
    """Analytic inverse-transform curve Astar on the grid for a combination."""
    base = truth_model(combo)
    alpha = combo.alpha
    pw = np.column_stack([(1.0 - w) ** (1.0 / alpha), w ** (1.0 / alpha)])
    inner = pw / pw.sum(axis=1, keepdims=True)
    return base.values(inner)


# -- per-replication work ----------------------------------------------------


def _sample_for(config, combo, rng):
    if combo.experiment == 1:
        return sample_experiment1(combo.psi_or_rho, combo.alpha, combo.n, rng)
    return sample_experiment2(
        combo.psi_or_rho,
        combo.upsilon,
        combo.alpha,
        combo.n,
        rng,
        n_prime=config.inner_size,
    )


def _block_size(config):
    """Replications per block: about eight blocks per worker."""
    return max(1, config.replications // (8 * config.jobs))


def _replicate_block(reps, config, combo, inject_truth=False):
    """Run a block of replications: draw each replication's sample from its
    own stream, then fit every pair on every sample in one fit_pairs call.

    Returns one {pair label: (astar values | None, clamp count, alpha
    clamped)} per replication, in the order of `reps`; None marks an
    estimation failure of that pair's tail stage. With inject_truth the
    fitted curves are replaced by the analytic truth (pipeline-testing hook).
    """
    samples = [
        _sample_for(config, combo, replication_stream(config.seed, combo, rep)) for rep in reps
    ]
    if inject_truth:
        truth = truth_curve(combo, edge_grid(config.grid_size))
        return [{pair.label: (truth, 0, False) for pair in config.pairs} for _ in samples]
    return [
        {
            label: (None, 0, False)
            if isinstance(fit, EstimationError)
            else (fit.a_star, fit.n_clamped, fit.alpha_clamped)
            for label, fit in fits.items()
        }
        for fits in fit_pairs(samples, config.pairs, config)
    ]


# -- reduction ---------------------------------------------------------------


def mise_decompose(curves, truth, w):
    """(MISE, ISB, IV) of a stack of curves against the truth on the grid.

    MISE is the mean over replications of the integrated squared error; ISB
    integrates the squared pointwise bias of the mean curve, IV the pointwise
    variance, so MISE = ISB + IV up to float rounding.
    """
    curves = np.asarray(curves, dtype=float)
    truth = np.asarray(truth, dtype=float)
    w = np.asarray(w, dtype=float)
    if curves.ndim != 2 or curves.shape[1] != truth.size or truth.size != w.size:
        raise DomainError("curve stack, truth, and grid shapes do not match")
    if curves.shape[0] < 2:
        raise DomainError("need at least 2 replications to decompose")
    mise, isb, iv, _, _ = _reduce(curves, truth, w)
    return mise, isb, iv


def _reduce(curves, truth, w):
    """(MISE, ISB, IV, per-replication ISE, mean curve) of a stack of curves."""
    ise = np.trapezoid((curves - truth) ** 2, w, axis=1)
    mean_curve = curves.mean(axis=0)
    isb = float(np.trapezoid((mean_curve - truth) ** 2, w))
    iv = float(np.trapezoid(((curves - mean_curve) ** 2).mean(axis=0), w))
    return float(ise.mean()), isb, iv, ise, mean_curve


@dataclass
class ComboResult:
    combo: Combo
    pair: EstimatorPair
    corrected: bool
    replications: int
    failures: int
    clamps: int
    alpha_clamps: int
    mise: float
    isb: float
    iv: float
    mise_se: float
    ise: np.ndarray = field(repr=False)
    mean_curve: np.ndarray = field(repr=False)
    wall_ms: float = 0.0

    @property
    def flagged(self):
        return self.failures > _FAILURE_FLAG_FRACTION * self.replications


def run_experiment(config, inject_truth=False):
    """Run the full sweep and reduce each (combination, pair) to a ComboResult.

    Replications run in blocks of consecutive indices, about eight blocks
    per worker (see _block_size); the blocks are distributed over
    `config.jobs` worker processes, or run in turn when jobs is 1. Each
    replication still draws from its own stream and results are reduced in
    replication order, so the output is identical at every parallelism
    width and block size.
    """
    combos = enumerate_combos(config)
    w = edge_grid(config.grid_size)
    results = []
    executor = ProcessPoolExecutor(max_workers=config.jobs) if config.jobs > 1 else None
    try:
        for combo in combos:
            start = perf_counter()
            size = _block_size(config)
            blocks = [
                range(lo, min(lo + size, config.replications))
                for lo in range(0, config.replications, size)
            ]
            task = _BlockTask(config, combo, inject_truth)
            block_results = map(task, blocks) if executor is None else executor.map(task, blocks)
            rep_results = [r for block in block_results for r in block]
            wall_ms = (perf_counter() - start) * 1000.0
            truth = truth_curve(combo, w)
            for pair in config.pairs:
                stack, clamps, alpha_clamps = [], 0, 0
                for r in rep_results:
                    curve, n_clamped, a_clamped = r[pair.label]
                    if curve is None:
                        continue
                    stack.append(curve)
                    clamps += n_clamped
                    alpha_clamps += int(a_clamped)
                failures = config.replications - len(stack)
                if len(stack) >= 2:
                    mise, isb, iv, ise, mean_curve = _reduce(np.array(stack), truth, w)
                    mise_se = float(ise.std(ddof=1) / np.sqrt(len(stack)))
                else:
                    mise = isb = iv = mise_se = float("nan")
                    ise = np.array([])
                    mean_curve = np.full(w.size, np.nan)
                results.append(
                    ComboResult(
                        combo=combo,
                        pair=pair,
                        corrected=config.corrected,
                        replications=config.replications,
                        failures=failures,
                        clamps=clamps,
                        alpha_clamps=alpha_clamps,
                        mise=mise,
                        isb=isb,
                        iv=iv,
                        mise_se=mise_se,
                        ise=ise,
                        mean_curve=mean_curve,
                        wall_ms=wall_ms,
                    )
                )
    finally:
        if executor is not None:
            executor.shutdown()
    return results


class _BlockTask:
    """Picklable block callable for the process pool."""

    def __init__(self, config, combo, inject_truth):
        self.config = config
        self.combo = combo
        self.inject_truth = inject_truth

    def __call__(self, reps):
        return _replicate_block(reps, self.config, self.combo, self.inject_truth)


# -- serialization -----------------------------------------------------------


def _fmt(x):
    return repr(float(x))


def _combo_cells(c):
    """Leading cells of a row: experiment, alpha, psi_or_rho, upsilon, n."""
    ups = "" if np.isnan(c.upsilon) else _fmt(c.upsilon)
    return [str(c.experiment), _fmt(c.alpha), _fmt(c.psi_or_rho), ups, str(c.n)]


def _ratio(num, den):
    """num / den with IEEE semantics: x/0 is inf and 0/0 is nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.float64(num) / den


def results_csv_text(results):
    """Deterministic results table.

    The wall_ms column is written as 0 so reruns are byte-identical;
    measured wall times are reported in the run report instead.
    """
    lines = [
        "experiment,alpha,psi_or_rho,upsilon,n,estimator_pair,corrected,R,"
        "failures,clamps,MISE,ISB,IV,wall_ms"
    ]
    for r in results:
        lines.append(
            ",".join(
                _combo_cells(r.combo)
                + [
                    r.pair.label,
                    str(int(r.corrected)),
                    str(r.replications),
                    str(r.failures),
                    str(r.clamps),
                    _fmt(r.mise),
                    _fmt(r.isb),
                    _fmt(r.iv),
                    "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def figure_tables(results):
    """Plot-ready tables mirroring the study's figure layouts.

    One MISE/ISB/IV table per tail estimator (rows indexed by the dependence
    grid and the dependence-curve estimator), plus a GPWM/ML ratio table when
    both tail estimators are present; a zero ML denominator gives inf (or
    nan for 0/0) in that table.
    """
    methods = sorted({r.pair.alpha_method for r in results})
    tables = {}
    header = "experiment,alpha,psi_or_rho,upsilon,n,pick,MISE,ISB,IV"
    for method in methods:
        lines = [header]
        for r in results:
            if r.pair.alpha_method != method:
                continue
            lines.append(
                ",".join(
                    _combo_cells(r.combo) + [r.pair.pick, _fmt(r.mise), _fmt(r.isb), _fmt(r.iv)]
                )
            )
        tables[f"figure_mise_{method.lower()}"] = "\n".join(lines) + "\n"
    if "GPWM" in methods and "ML" in methods:
        by_key = {(r.combo, r.pair.pick, r.pair.alpha_method): r for r in results}
        lines = [
            "experiment,alpha,psi_or_rho,upsilon,n,pick,ratio_MISE,ratio_ISB,ratio_IV"
        ]
        seen = []
        for r in results:
            key = (r.combo, r.pair.pick)
            if key in seen or (key + ("GPWM",)) not in by_key or (key + ("ML",)) not in by_key:
                continue
            seen.append(key)
            g = by_key[key + ("GPWM",)]
            m = by_key[key + ("ML",)]
            ratios = [_ratio(g.mise, m.mise), _ratio(g.isb, m.isb), _ratio(g.iv, m.iv)]
            lines.append(",".join(_combo_cells(r.combo) + [r.pair.pick] + [_fmt(x) for x in ratios]))
        tables["figure_ratio_gpwm_ml"] = "\n".join(lines) + "\n"
    return tables


def run_report_text(results):
    """Human-readable run report: timings, failure/clamp counters, warnings."""
    lines = ["run report", "=========="]
    warnings = []
    for r in results:
        c = r.combo
        ups = "" if np.isnan(c.upsilon) else f" upsilon={c.upsilon:g}"
        lines.append(
            f"experiment={c.experiment} alpha={c.alpha:g} grid={c.psi_or_rho:g}{ups} "
            f"n={c.n} pair={r.pair.label}: R={r.replications} failures={r.failures} "
            f"clamps={r.clamps} alpha_clamps={r.alpha_clamps} "
            f"wall_ms={r.wall_ms:.1f}"
        )
        if r.flagged:
            warnings.append(
                f"WARNING: combo alpha={c.alpha:g} grid={c.psi_or_rho:g} n={c.n} "
                f"pair={r.pair.label} had {r.failures}/{r.replications} failures"
            )
    lines.extend(warnings if warnings else ["no warnings"])
    return "\n".join(lines) + "\n"
