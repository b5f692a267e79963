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

Scheduling: a sweep is one list of (combination, block) tasks in sweep
order, where a block is a run of consecutive replication indices (about
eight blocks per process, see _block_size). At jobs=1 the tasks run lazily
in this process and each combination is reduced before the next one is
drawn. At jobs > 1 the sweep starts min(jobs, tasks) - 1 worker processes
with the platform's default start method (under fork they inherit the
task list), and every process claims tasks from one shared (front, back)
pair of indices under one lock: the workers from the front, this process
from the back, until the two meet. `jobs` thus counts the processes that
run blocks, this one included, and no worker is started without a task
for it. A worker sends each block's result or exception down its own pipe
from a sender thread, so a full pipe never holds up its next block; this
process reads the pipes between its own blocks and yields the results in
sweep order, so the first failing block in sweep order raises, whichever
process ran it, and a worker that dies fails the blocks it claimed and did
not return. Each combination is reduced and released once its blocks are
in. Every worker is stopped if need be and joined before the sweep
returns, on every exit, so none outlives it. Each process gives the curve
kernel's lanes max(1, CPUs // processes) CPUs, so the lanes of a pooled
sweep do not oversubscribe the cores. ComboResult.wall_ms is the sum of
the combination's block times, each measured where the block ran.

A block goes through every layer as stacked arrays: its pipeline's sampler
(sample_experiment1 or sample_experiment2) draws one sample per
replication stream into one PairedSample of B rows, each row with the bits
its stream gives alone; one estimators.fit_pairs call fits every pair to
all B rows, ranks them in one pass, shares the curve kernel's level tables
across them, and returns each pair's fits as (B, k) and (B,) arrays. The
blocks of a combination are concatenated in replication order, and
failures and clamps are counted as array sums. Samples and fits do not
depend on the block they fall in, so the block size moves no output either.
Per-replication estimation failures are excluded and counted, never imputed;
a combination with more than 20% failures is flagged in the run report.
Parameter domains belong to depcore: ExperimentConfig checks its grids by
building each combination's truth_model and calling check_tail_index, and
its counts with the samplers' check_sample_size and check_inner_size.
"""

import multiprocessing
import pickle
import queue
import struct
import sys
import threading
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait
from time import perf_counter

import numpy as np

from .depcore import ExtremalT, Logistic, check_tail_index, edge_grid, edge_points, power_points
from .errors import DomainError, as_integer
from .estimators import EstimatorPair, FitSettings, _cpu_count, fit_pairs
from .samplers import (
    RngStream,
    check_inner_size,
    check_sample_size,
    sample_experiment1,
    sample_experiment2,
)

__all__ = [
    "ExperimentConfig",
    "Combo",
    "ComboResult",
    "enumerate_combos",
    "replication_stream",
    "truth_model",
    "truth_curve",
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
    `rhos` x `upsilons` with `inner_size` blocks per observation, and the
    other pipeline's grids stay empty. `fit` holds the pair settings.
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
    fit: FitSettings = FitSettings()
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.experiment not in (1, 2):
            raise DomainError(f"experiment must be 1 or 2, got {self.experiment!r}")
        if self.experiment == 2:
            check_inner_size("inner_size", self.inner_size)
        for i, n in enumerate(self.sizes):
            check_sample_size(f"sizes[{i}]", n)
        if as_integer("replications", self.replications) < 2:
            raise DomainError("need at least 2 replications")
        if as_integer("jobs", self.jobs) < 1:
            raise DomainError("parallelism width must be >= 1")
        as_integer("seed", self.seed)
        unread = ("rhos", "upsilons") if self.experiment == 1 else ("psis",)
        for name in ("alphas", "psis", "rhos", "upsilons", "sizes", "pairs"):
            if not getattr(self, name) and name not in unread:
                raise DomainError(f"{name} must be nonempty")
            if getattr(self, name) and name in unread:
                raise DomainError(f"{name} is not read by experiment {self.experiment}")
        if len(set(self.pairs)) < len(self.pairs):
            raise DomainError(f"pairs must not list a pair twice, got {self.pairs!r}")
        for combo in enumerate_combos(self):
            truth_model(combo)
            check_tail_index(combo.alpha)


@dataclass(frozen=True)
class Combo:
    experiment: int
    alpha: float
    psi_or_rho: float
    upsilon: float  # NaN for experiment 1
    n: int


def enumerate_combos(config):
    """The sweep's combinations in result order: alpha, psi or (upsilon, rho), n."""
    if config.experiment == 1:
        dependence = [(psi, float("nan")) for psi in config.psis]
    else:
        dependence = [(rho, ups) for ups in config.upsilons for rho in config.rhos]
    return [
        Combo(config.experiment, float(alpha), float(dep), float(ups), int(n))
        for alpha in config.alphas
        for dep, ups in dependence
        for n in config.sizes
    ]


# -- stream derivation -------------------------------------------------------

_U64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _float_bits(x):
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def _combo_key(combo):
    """The splitmix state after hashing a combination's values: every
    round of a replication's stream id but the last, which takes the
    replication index."""
    h = _splitmix64(0xA076_1D64_78BD_642F ^ combo.experiment)
    for bits in (
        _float_bits(combo.alpha),
        _float_bits(combo.psi_or_rho),
        _float_bits(combo.upsilon),
        combo.n & _U64,
    ):
        h = _splitmix64(h ^ bits)
    return h


def _keyed_stream(seed, key, rep):
    """Philox stream for replication `rep` of the combination whose
    _combo_key is `key`."""
    return RngStream(seed=seed, stream_id=_splitmix64(key ^ (rep & _U64)))


def replication_stream(seed, combo, rep):
    """Philox stream for one replication, keyed by the combination's values
    (not its sweep position) and the replication index."""
    return _keyed_stream(seed, _combo_key(combo), rep)


# -- truth -------------------------------------------------------------------


def truth_model(combo):
    """Base dependence model of the underlying observations for a combination."""
    if combo.experiment == 1:
        return Logistic(combo.psi_or_rho)
    return ExtremalT(combo.psi_or_rho, combo.upsilon)


def truth_curve(combo, w):
    """Analytic inverse-transform curve Astar on the grid for a combination."""
    inner, _ = power_points(edge_points(w), 1.0 / combo.alpha)
    return truth_model(combo).values(inner)


# -- per-replication work ----------------------------------------------------


def _sample_block(reps, config, combo):
    """The PairedSample with one row per replication in `reps`, each drawn
    from that replication's own stream; the combination is hashed once."""
    key = _combo_key(combo)
    streams = [_keyed_stream(config.seed, key, rep) for rep in reps]
    if combo.experiment == 1:
        return sample_experiment1(combo.psi_or_rho, combo.alpha, combo.n, streams)
    return sample_experiment2(
        combo.psi_or_rho, combo.upsilon, combo.alpha, combo.n, streams, n_prime=config.inner_size
    )


def _block_size(config):
    """Replications per block: about eight blocks per process."""
    return max(1, config.replications // (8 * config.jobs))


def _replicate_block(reps, config, combo, cpus=None):
    """Run a block of replications: draw the block's samples, then fit every
    pair on all of them in one fit_pairs call with the sweep's fit settings,
    its kernel on `cpus` CPUs (see fit_pairs).

    Returns {pair label: (a_star (B, k), ok (B,), node clamps (B,), alpha
    clamped (B,))}, with rows in the order of `reps`; ok marks the rows
    whose fit succeeded, and a failed row has no clamp of either kind.
    """
    fits = fit_pairs(_sample_block(reps, config, combo), config.pairs, config.fit, cpus=cpus)
    return {
        label: (fit.a_star, fit.ok, fit.n_clamped, fit.alpha_clamped) for label, fit in fits.items()
    }


def _timed_block(task, config, cpus):
    """(_replicate_block of one (combination, replications) task, seconds it took)."""
    combo, reps = task
    start = perf_counter()
    rows = _replicate_block(reps, config, combo, cpus)
    return rows, perf_counter() - start


def _attempt(run, task):
    """(True, run(task)), or (False, the exception it raised)."""
    try:
        return True, run(task)
    except Exception as exc:
        return False, exc


class _Claims:
    """The (front, back) pair of task indices that the processes of a sweep
    claim from under one lock, and the worker that claimed each task (0 for
    none: unclaimed, or claimed by the sweep's own process)."""

    def __init__(self, context, size):
        self._lock = context.Lock()
        self._bounds = context.RawArray("q", [0, size])
        self.owners = context.RawArray("i", size)

    def front(self, worker):
        """The first unclaimed index, now claimed by `worker`, or None."""
        with self._lock:
            i, back = self._bounds
            if i >= back:
                return None
            self.owners[i] = worker
            self._bounds[0] = i + 1
            return i

    def back(self):
        """The last unclaimed index, now claimed, or None."""
        with self._lock:
            front, i = self._bounds
            if front >= i:
                return None
            self._bounds[1] = i - 1
            return i - 1


def _send_all(outbox, writer):
    """Send each payload put in `outbox` down `writer`, until a None."""
    for payload in iter(outbox.get, None):
        writer.send_bytes(payload)


def _work(run, tasks, claims, worker, writer):
    """A worker process: claim tasks from the front and send each one's
    pickled (index, ok, value) down `writer`. A thread sends them, so the
    next block starts while the parent has yet to read the last."""
    # the sender needs the GIL to pass each result on: this interval bounds
    # its wait behind a computing block to 0.1 ms, where the default is 5 ms
    sys.setswitchinterval(1e-4)
    outbox = queue.SimpleQueue()
    sender = threading.Thread(target=_send_all, args=(outbox, writer))
    sender.start()
    try:
        while (i := claims.front(worker)) is not None:
            outbox.put(pickle.dumps((i, *_attempt(run, tasks[i])), pickle.HIGHEST_PROTOCOL))
    finally:
        outbox.put(None)
        sender.join()
        writer.close()


def _collect(links, claims, tasks, done, first, timeout):
    """Move the results that have arrived from the workers in `links`, a
    {worker: (process, reader)} dict, into `done`, {index: (ok, value)},
    waiting up to `timeout` seconds for one (None: no limit). A worker
    whose pipe is at its end, or whose process has exited, is joined and
    dropped from `links`; each block from `first` on that it claimed and
    did not return fails with a RuntimeError that names it."""
    handles = {}
    for worker, (process, reader) in links.items():
        handles[reader] = handles[process.sentinel] = worker
    for worker in {handles[ready] for ready in wait(list(handles), timeout)}:
        process, reader = links[worker]
        ended = not process.is_alive()
        while reader.poll():
            try:
                i, ok, value = pickle.loads(reader.recv_bytes())
            except (EOFError, OSError):  # the writer is closed, maybe in mid-message
                ended = True
                break
            done[i] = ok, value
        if ended:
            process.join()
            reader.close()
            del links[worker]
            for i in range(first, len(tasks)):
                if claims.owners[i] == worker and i not in done:
                    message = (
                        f"a worker process exited with code {process.exitcode} "
                        f"before returning block {i} of the sweep, {tasks[i]!r}"
                    )
                    done[i] = False, RuntimeError(message)


def _block_results(tasks, config, workers):
    """Yield _timed_block of every task, in task order.

    With no workers the tasks run here, one per item drawn. Otherwise
    `workers` processes are started, which claim tasks from the front of
    one shared counter pair while this process claims them from the back,
    until the two meet. Between its own blocks this process reads the
    results the workers have sent; when the next task in order is held by
    a worker, it waits for a result or for a worker to exit. A task's
    exception is raised when its item is drawn, wherever it ran, and a
    worker that exits fails each task it claimed and did not return. Each
    process gives the kernel max(1, CPUs // processes) CPUs. On every exit
    the workers are joined, after being terminated unless every item was
    drawn, so none outlives the generator.
    """
    run = partial(_timed_block, config=config, cpus=max(1, _cpu_count() // (workers + 1)))
    if not workers:
        yield from map(run, tasks)
        return
    context = multiprocessing.get_context()
    claims = _Claims(context, len(tasks))
    links, processes, done, drawn = {}, [], {}, 0
    try:
        for worker in range(1, workers + 1):
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_work, args=(run, tasks, claims, worker, writer), daemon=True
            )
            process.start()
            writer.close()  # its end of the pipe is the worker's alone
            processes.append(process)
            links[worker] = process, reader
        for i in range(len(tasks)):
            _collect(links, claims, tasks, done, i, 0)
            while i not in done:
                j = claims.back()
                if j is not None:
                    done[j] = _attempt(run, tasks[j])
                # with nothing left to claim, wait for the workers
                _collect(links, claims, tasks, done, i, 0 if j is not None else None)
            ok, value = done.pop(i)
            if not ok:
                raise value
            drawn += 1
            yield value
    finally:
        for process in processes:
            if drawn < len(tasks) and process.is_alive():
                process.terminate()
            process.join()
        for _, reader in links.values():
            reader.close()


# -- reduction ---------------------------------------------------------------


def _reduce(curves, truth, w):
    """(MISE, ISB, IV, per-replication ISE) of a stack of curves.

    MISE is the mean over replications of the integrated squared error; ISB
    integrates the squared pointwise bias of the mean curve, IV the pointwise
    variance, so MISE = ISB + IV up to float rounding.
    """
    ise = np.trapezoid((curves - truth) ** 2, w, axis=1)
    mean_curve = curves.mean(axis=0)
    isb = float(np.trapezoid((mean_curve - truth) ** 2, w))
    iv = float(np.trapezoid(((curves - mean_curve) ** 2).mean(axis=0), w))
    return float(ise.mean()), isb, iv, ise


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
    wall_ms: float = 0.0

    @property
    def flagged(self):
        return self.failures > _FAILURE_FLAG_FRACTION * self.replications


def run_experiment(config):
    """Run the full sweep and reduce each (combination, pair) to a ComboResult.

    Every replication is fitted with `config.fit`, and its curves are
    reduced against the truth on that grid. The tasks are the sweep's
    (combination, block) pairs in sweep order, with blocks sized by
    _block_size. At jobs=1 they run here, one combination at a time;
    otherwise min(jobs, tasks) - 1 worker processes claim them from the
    front of a shared counter pair while this process claims them from the
    back, until the two meet. The first failing block in sweep order
    raises, at every width, and a worker that dies fails each block it
    claimed and did not return. Every worker is joined before this
    returns, on every exit. The output is identical at every width and
    block size (see the module docstring); ComboResult.wall_ms sums the
    combination's block times.
    """
    combos = enumerate_combos(config)
    w = edge_grid(config.fit.grid_size)
    size = _block_size(config)
    blocks = [
        range(lo, min(lo + size, config.replications))
        for lo in range(0, config.replications, size)
    ]
    tasks = [(combo, reps) for combo in combos for reps in blocks]
    workers = min(config.jobs, len(tasks)) - 1
    results = []
    with closing(_block_results(tasks, config, workers)) as done:
        for combo in combos:
            block_rows, seconds = zip(*(next(done) for _ in blocks))
            wall_ms = 1000.0 * sum(seconds)
            truth = truth_curve(combo, w)
            for pair in config.pairs:
                # every replication's row, in replication order
                a_star, ok, clamps, alpha_clamped = (
                    np.concatenate(column)
                    for column in zip(*(block[pair.label] for block in block_rows))
                )
                stack = a_star if ok.all() else a_star[ok]
                failures = config.replications - len(stack)
                if len(stack) >= 2:
                    mise, isb, iv, ise = _reduce(stack, truth, w)
                    mise_se = float(ise.std(ddof=1) / np.sqrt(len(stack)))
                else:
                    mise = isb = iv = mise_se = float("nan")
                    ise = np.array([])
                results.append(
                    ComboResult(
                        combo=combo,
                        pair=pair,
                        corrected=config.fit.corrected,
                        replications=config.replications,
                        failures=failures,
                        clamps=int(clamps.sum()),
                        alpha_clamps=int(np.count_nonzero(alpha_clamped)),
                        mise=mise,
                        isb=isb,
                        iv=iv,
                        mise_se=mise_se,
                        ise=ise,
                        wall_ms=wall_ms,
                    )
                )
    return results


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
        for combo, pick in dict.fromkeys((r.combo, r.pair.pick) for r in results):
            g, m = (by_key.get((combo, pick, method)) for method in ("GPWM", "ML"))
            if g is None or m is None:
                continue
            ratios = [_ratio(g.mise, m.mise), _ratio(g.isb, m.isb), _ratio(g.iv, m.iv)]
            lines.append(",".join(_combo_cells(combo) + [pick] + [_fmt(x) for x in ratios]))
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
