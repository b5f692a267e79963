import multiprocessing
import re
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from randmax import estimators, harness
from randmax.depcore import edge_grid, student_t_cdf
from randmax.errors import DomainError, EstimationError
from randmax.estimators import EstimatorPair, FitSettings, fit_pairs
from randmax.harness import (
    Combo,
    ComboResult,
    ExperimentConfig,
    enumerate_combos,
    figure_tables,
    replication_stream,
    results_csv_text,
    run_experiment,
    run_report_text,
    truth_curve,
    truth_model,
)
from randmax.samplers import sample_experiment1

from oracles import stack_samples


@pytest.fixture(autouse=True)
def no_process_left():
    """Every worker a test starts has exited when it ends."""
    yield
    assert multiprocessing.active_children() == []


def _small_config(**overrides):
    base = dict(
        experiment=1,
        alphas=(0.5,),
        psis=(0.5, 1.0),
        sizes=(50,),
        replications=6,
        pairs=(EstimatorPair("CFG", "GPWM"), EstimatorPair("P", "ML")),
        seed=77,
        jobs=1,
        fit=FitSettings(grid_size=21),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid(self):
        _small_config()

    def test_even_grid_rejected(self):
        with pytest.raises(DomainError):
            FitSettings(grid_size=20)

    def test_empty_psi_rejected(self):
        with pytest.raises(DomainError):
            _small_config(psis=())

    def test_experiment2_needs_rho_and_upsilon(self):
        with pytest.raises(DomainError):
            _small_config(experiment=2)

    def test_small_replications_rejected(self):
        with pytest.raises(DomainError):
            _small_config(replications=1)

    def test_bad_alpha_rejected(self):
        with pytest.raises(DomainError):
            _small_config(alphas=(1.2,))

    def test_pair_listed_twice_rejected(self):
        # a repeated pair would give two identical result rows
        with pytest.raises(DomainError, match="^pairs must not list a pair twice"):
            _small_config(pairs=(EstimatorPair("P", "ML"), EstimatorPair("P", "ML")))

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(experiment=2, rhos=(0.5,), upsilons=(1.0,)), "psis"),
            (dict(rhos=(0.5,)), "rhos"),
            (dict(upsilons=(1.0,)), "upsilons"),
        ],
    )
    def test_grid_the_pipeline_does_not_read_rejected(self, overrides, field):
        # a grid the pipeline does not read would be silently ignored
        with pytest.raises(DomainError, match=rf"^{field} is not read by experiment"):
            _small_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(sizes=(50.5,)), "sizes[0]"),
            (dict(sizes=(50, 60.0)), "sizes[1]"),
            (dict(replications=2.5), "replications"),
            (dict(jobs=1.5), "jobs"),
            (dict(seed=1.5), "seed"),
            (
                dict(experiment=2, psis=(), rhos=(0.5,), upsilons=(1.0,), inner_size=20.0),
                "inner_size",
            ),
        ],
    )
    def test_non_integer_count_rejected(self, overrides, field):
        # a float count was truncated (sizes) or raised a TypeError in run_experiment
        with pytest.raises(DomainError, match=rf"^{re.escape(field)} must be an integer"):
            _small_config(**overrides)

    def test_numpy_integer_counts_accepted(self):
        cfg = _small_config(sizes=(np.int64(50),), replications=np.int32(6), jobs=np.int64(1))
        assert [combo.n for combo in enumerate_combos(cfg)] == [50, 50]


class TestStreams:
    def test_streams_depend_on_content_not_position(self):
        combo = Combo(1, 0.5, 0.7, float("nan"), 50)
        a = replication_stream(9, combo, 3)
        b = replication_stream(9, Combo(1, 0.5, 0.7, float("nan"), 50), 3)
        assert a == b

    def test_streams_distinct_across_reps_and_combos(self):
        combo = Combo(1, 0.5, 0.7, float("nan"), 50)
        ids = {replication_stream(9, combo, r).stream_id for r in range(100)}
        assert len(ids) == 100
        other = Combo(1, 0.5, 0.7001, float("nan"), 50)
        assert replication_stream(9, other, 0) != replication_stream(9, combo, 0)


class TestTruth:
    def test_independence_truth_is_one(self):
        w = edge_grid(21)
        assert np.allclose(truth_curve(Combo(1, 0.5, 1.0, float("nan"), 50), w), 1.0)

    def test_logistic_truth_barycenter(self):
        w = edge_grid(21)
        vals = truth_curve(Combo(1, 0.5, 0.5, float("nan"), 50), w)
        assert vals[10] == pytest.approx(0.7071067812, abs=1e-10)

    def test_extremal_t_truth_barycenter(self):
        combo = Combo(2, 0.5, 0.99, 1.0, 50)
        theta = 2.0 * truth_model(combo).values(np.array([[0.5, 0.5]]))[0]
        target = 2.0 * student_t_cdf(np.sqrt(2.0 * 0.01 / 1.99), 2.0)
        assert theta == pytest.approx(target, abs=1e-10)
        assert theta < 1.08
        w = edge_grid(21)
        # the barycenter is a fixed point of the reparametrization, so the
        # inverse-transform truth there equals the base value theta/2
        assert truth_curve(combo, w)[10] == pytest.approx(theta / 2.0, abs=1e-12)


class TestMiseDecompose:
    def test_perfect_estimates(self):
        w = edge_grid(11)
        truth = np.linspace(1.0, 0.8, 11)
        curves = np.tile(truth, (5, 1))
        mise, isb, iv, _ = harness._reduce(curves, truth, w)
        assert abs(mise) < 1e-30 and abs(isb) < 1e-30 and abs(iv) < 1e-30

    def test_constant_offset_is_pure_bias(self):
        w = edge_grid(11)
        truth = np.full(11, 0.9)
        curves = np.tile(truth + 0.1, (4, 1))
        mise, isb, iv, _ = harness._reduce(curves, truth, w)
        assert isb == pytest.approx(0.01, rel=1e-12)
        assert iv == pytest.approx(0.0, abs=1e-15)
        assert mise == pytest.approx(0.01, rel=1e-12)

    def test_alternating_offsets_are_pure_variance(self):
        w = edge_grid(11)
        truth = np.full(11, 0.9)
        curves = np.vstack([truth + 0.1, truth - 0.1, truth + 0.1, truth - 0.1])
        mise, isb, iv, _ = harness._reduce(curves, truth, w)
        assert isb == pytest.approx(0.0, abs=1e-15)
        assert iv == pytest.approx(0.01, rel=1e-12)


class TestRunExperiment:
    def test_additivity_at_grid_level(self):
        res = run_experiment(_small_config())
        for r in res:
            assert abs(r.mise - (r.isb + r.iv)) <= 1e-10 * max(1.0, r.mise)

    def test_forced_identical_replications_have_zero_variance(self):
        cfg = _small_config()
        combo = enumerate_combos(cfg)[0]
        a_star, *_ = harness._replicate_block(range(1), cfg, combo)["CFG-GPWM"]
        w = edge_grid(cfg.fit.grid_size)
        curves = np.vstack([a_star[0], a_star[0]])
        mise, isb, iv, _ = harness._reduce(curves, truth_curve(combo, w), w)
        assert iv == 0.0
        assert mise == pytest.approx(isb, rel=1e-12)

    def test_truth_injection_gives_zero_mise(self, monkeypatch):
        # a fit that returns the analytic truth of the parameters each sample
        # was drawn with must reduce to zero error against each combo's truth
        def truth_fits(block, pairs, settings):
            w = edge_grid(settings.grid_size)
            meta, rows = block.meta, len(block)
            combo = Combo(1, meta["alpha"], meta["psi"], float("nan"), meta["n"])
            truth = SimpleNamespace(
                ok=np.ones(rows, dtype=bool),
                a_star=np.tile(truth_curve(combo, w), (rows, 1)),
                n_clamped=np.zeros(rows, dtype=int),
                alpha_clamped=np.zeros(rows, dtype=bool),
            )
            return {pair.label: truth for pair in pairs}

        monkeypatch.setattr(harness, "fit_pairs", truth_fits)
        res = run_experiment(_small_config())
        for r in res:
            assert abs(r.mise) < 1e-12 and abs(r.isb) < 1e-12 and abs(r.iv) < 1e-12

    @pytest.mark.parametrize(
        "overrides, block",
        [
            ({}, None),
            (dict(experiment=2, psis=(), rhos=(0.5,), upsilons=(1.0,)), None),
            ({}, 4),
            (dict(experiment=2, psis=(), rhos=(0.5,), upsilons=(1.0,)), 4),
        ],
        ids=["pipeline1", "pipeline2", "pipeline1-blocks_of_4", "pipeline2-blocks_of_4"],
    )
    def test_results_identical_across_jobs(self, overrides, block, monkeypatch):
        # blocks of 4 split the 6 replications unevenly (4 + 2), serially and
        # in the pool
        cfg = _small_config(**overrides)
        a = results_csv_text(run_experiment(cfg))
        if block is not None:
            monkeypatch.setattr(harness, "_block_size", lambda config: block)
        pooled = run_experiment(replace(cfg, jobs=2))
        # a combination's time sums its blocks' times, wherever they ran,
        # and results.csv still writes 0 for it
        assert all(r.wall_ms > 0 for r in pooled)
        b = results_csv_text(pooled)
        assert {line.rsplit(",", 1)[1] for line in b.splitlines()[1:]} == {"0"}
        c = results_csv_text(run_experiment(replace(cfg, jobs=3)))
        d = results_csv_text(run_experiment(cfg))
        assert a == b == c == d

    def test_pool_width_is_bounded_by_the_blocks(self, monkeypatch):
        # 2 combinations x 2 replications in blocks of 1: 4 blocks, so at
        # jobs=64 three workers join this process, and at jobs=1 none
        pools = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _fake_pool(pools, held=64))
        cfg = _small_config(replications=2)
        serial = results_csv_text(run_experiment(cfg))
        assert pools == []
        assert results_csv_text(run_experiment(replace(cfg, jobs=64))) == serial
        assert [(pool.max_workers, pool.cancelled_on_shutdown) for pool in pools] == [(3, True)]

    def test_parent_runs_the_blocks_no_worker_holds(self, monkeypatch):
        # the fake pool's workers hold the first two of the 12 blocks, so this
        # process cancels the other ten and runs them, last block first
        pools = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _fake_pool(pools, held=2))
        cfg = _small_config()
        serial = results_csv_text(run_experiment(cfg))
        assert results_csv_text(run_experiment(replace(cfg, jobs=2))) == serial
        (pool,) = pools
        assert pool.max_workers == 1
        assert [future.cancelled() for future in pool.futures] == [False] * 2 + [True] * 10

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_first_failing_block_in_sweep_order_raises(self, jobs, monkeypatch):
        # 12 one-replication blocks; replication 1 of psi=0.5 fails early, and
        # replication 5 of psi=1, the last block, fails too (it is the first
        # block this process runs when there are workers)
        real = harness._sample_block

        def failing(reps, config, combo):
            if (combo.psi_or_rho, reps[0]) in ((0.5, 1), (1.0, 5)):
                raise DomainError(f"block psi={combo.psi_or_rho} from replication {reps[0]}")
            return real(reps, config, combo)

        monkeypatch.setattr(harness, "_sample_block", failing)
        with pytest.raises(DomainError, match=r"^block psi=0\.5 from replication 1$"):
            run_experiment(_small_config(jobs=jobs))

    def test_monotone_consistency_in_sample_size(self):
        cfg = ExperimentConfig(
            experiment=1,
            alphas=(0.5,),
            psis=(0.5,),
            sizes=(50, 100, 400),
            replications=200,
            pairs=(EstimatorPair("CFG", "GPWM"),),
            seed=97,
            jobs=2,
        )
        res = {r.combo.n: r.mise for r in run_experiment(cfg)}
        assert res[400] < res[100] < res[50]

    def test_replicate_matches_one_sample_fit(self):
        # a block fit equals one fit_pairs call per sample and pair: 3 psi x 20 reps x 6 pairs
        pairs = tuple(EstimatorPair(p, a) for a in ("GPWM", "ML") for p in ("P", "CFG", "MD"))
        cfg = _small_config(psis=(0.1, 0.55, 1.0), replications=20, pairs=pairs, fit=FitSettings())
        checked = mismatches = 0
        for combo in enumerate_combos(cfg):
            block = harness._replicate_block(range(cfg.replications), cfg, combo)
            for rep in range(cfg.replications):
                stream = replication_stream(cfg.seed, combo, rep)
                sample = sample_experiment1(combo.psi_or_rho, combo.alpha, combo.n, stream)
                for pair in pairs:
                    a_star, ok, node_clamps, alpha_clamps = block[pair.label]
                    curve = a_star[rep] if ok[rep] else None
                    clamps, alpha_clamped = node_clamps[rep], alpha_clamps[rep]
                    alone = fit_pairs(stack_samples((sample,)), (pair,), cfg.fit)
                    est = alone[pair.label]
                    checked += 1
                    if isinstance(est.errors[0], EstimationError):
                        mismatches += curve is not None
                        continue
                    same = (
                        curve is not None
                        and np.array_equal(curve, est.a_star[0])
                        and clamps == est.n_clamped[0]
                        and alpha_clamped == est.alpha_clamped[0]
                    )
                    mismatches += not same
        assert checked == 360
        assert mismatches == 0

    def test_failures_are_counted_and_excluded(self, monkeypatch):
        # every third fitted row fails, across the block calls of the sweep
        calls = {"n": 0}
        real = estimators.estimate_alpha

        def flaky(xi, methods, k=5):
            fits = real(xi, methods, k)
            for method, (alpha, errors) in fits.items():
                alpha, errors = alpha.copy(), list(errors)
                for b in range(len(errors)):
                    calls["n"] += 1
                    if calls["n"] % 3 == 0:
                        alpha[b], errors[b] = np.nan, EstimationError("forced", stage=method)
                fits[method] = alpha, tuple(errors)
            return fits

        monkeypatch.setattr(estimators, "estimate_alpha", flaky)
        cfg = _small_config(psis=(0.5,), replications=6, pairs=(EstimatorPair("CFG", "GPWM"),))
        res = run_experiment(cfg)
        assert res[0].failures == 2
        assert res[0].ise.size == 4
        assert res[0].flagged  # 2/6 > 20%

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_row_inside_a_block_is_counted(self, jobs, monkeypatch):
        # blocks of 4 over 6 replications; replication 5, the second row of
        # the short last block, gets a constant xi, so every pair fails there;
        # at jobs=2 a worker and this process share the two blocks
        real = harness.sample_experiment1_block

        def constant_row(psi, alpha, n, rngs, d=2):
            block = real(psi, alpha, n, rngs, d)
            if len(rngs) == 2:
                block.xi[1] = 1.0
            return block

        cfg = _small_config(psis=(0.5,), jobs=jobs)
        monkeypatch.setattr(harness, "_block_size", lambda config: 4)
        monkeypatch.setattr(harness, "sample_experiment1_block", constant_row)
        res = run_experiment(cfg)
        assert [r.failures for r in res] == [1, 1]
        assert [r.ise.size for r in res] == [5, 5]
        assert all(np.isfinite(r.mise) for r in res)

    def test_report_mentions_flagged_combos(self, monkeypatch):
        monkeypatch.setattr(
            estimators,
            "estimate_alpha",
            lambda xi, methods, k=5: {
                method: (np.full(len(xi), np.nan), (EstimationError("x", stage=method),) * len(xi))
                for method in methods
            },
        )
        cfg = _small_config(psis=(0.5,), replications=4, pairs=(EstimatorPair("CFG", "GPWM"),))
        res = run_experiment(cfg)
        assert res[0].failures == 4
        assert "WARNING" in run_report_text(res)


def _fake_pool(pools, held):
    """A ProcessPoolExecutor stand-in that starts no process. Each pool is
    appended to `pools`; it runs its first `held` tasks when they are
    submitted, as workers holding them would, and leaves the rest pending
    for the caller to cancel. Drawing a pending result fails instead of
    waiting for a worker that does not exist."""

    class Pending(Future):
        def result(self, timeout=None):
            assert self.done(), "drew a block that no process runs"
            return super().result(timeout)

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.futures = []
            self.cancelled_on_shutdown = None
            pools.append(self)

        def submit(self, fn, *args):
            future = Pending()
            if len(self.futures) < held:
                future.set_running_or_notify_cancel()
                future.set_result(fn(*args))
            self.futures.append(future)
            return future

        def shutdown(self, cancel_futures=False):
            self.cancelled_on_shutdown = cancel_futures

    return FakePool


class TestSerialization:
    def test_results_csv_schema(self):
        res = run_experiment(_small_config())
        text = results_csv_text(res)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "experiment,alpha,psi_or_rho,upsilon,n,estimator_pair,corrected,R,"
            "failures,clamps,MISE,ISB,IV,wall_ms"
        )
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == ""  # upsilon blank for experiment 1
        assert first[-1] == "0"  # deterministic wall column; timings in the report

    def test_figure_tables(self):
        res = run_experiment(_small_config())
        tables = figure_tables(res)
        assert set(tables) == {"figure_mise_gpwm", "figure_mise_ml", "figure_ratio_gpwm_ml"}
        ratio = tables["figure_ratio_gpwm_ml"].strip().split("\n")
        assert ratio[0].endswith("ratio_MISE,ratio_ISB,ratio_IV")
        # GPWM-only sweep yields no ratio table
        solo = run_experiment(_small_config(pairs=(EstimatorPair("CFG", "GPWM"),)))
        assert "figure_ratio_gpwm_ml" not in figure_tables(solo)

    def test_ratio_table_with_zero_ml_denominators(self):
        # x/0 gives inf and 0/0 gives nan instead of ZeroDivisionError
        combo = Combo(1, 0.5, 0.5, float("nan"), 50)

        def result(pick, method, mise, isb, iv):
            return ComboResult(
                combo=combo,
                pair=EstimatorPair(pick, method),
                corrected=True,
                replications=2,
                failures=0,
                clamps=0,
                alpha_clamps=0,
                mise=mise,
                isb=isb,
                iv=iv,
                mise_se=0.0,
                ise=np.zeros(2),
            )

        res = [
            result("P", "GPWM", 0.02, 0.01, 0.01),
            result("P", "ML", 0.01, 0.01, 0.0),
            result("CFG", "GPWM", 0.01, 0.01, 0.0),
            result("CFG", "ML", 0.0, 0.0, 0.0),
        ]
        rows = figure_tables(res)["figure_ratio_gpwm_ml"].strip().split("\n")[1:]
        assert rows == [
            "1,0.5,0.5,,50,P,2.0,1.0,inf",
            "1,0.5,0.5,,50,CFG,inf,inf,nan",
        ]

    def test_report_lists_every_combo_pair(self):
        res = run_experiment(_small_config())
        report = run_report_text(res)
        assert report.count("pair=") == len(res)
