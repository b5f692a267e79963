from dataclasses import replace

import numpy as np
import pytest

from randmax import estimators, harness
from randmax.depcore import edge_grid
from randmax.errors import DomainError, EstimationError
from randmax.estimators import CompositeConfig, composite_estimate
from randmax.harness import (
    Combo,
    ComboResult,
    EstimatorPair,
    ExperimentConfig,
    enumerate_combos,
    figure_tables,
    mise_decompose,
    replication_stream,
    results_csv_text,
    run_experiment,
    run_report_text,
    truth_curve,
    truth_model,
)
from randmax.samplers import sample_experiment1
from randmax.specfun import student_t_cdf


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
        grid_size=21,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid(self):
        _small_config()

    def test_even_grid_rejected(self):
        with pytest.raises(DomainError):
            _small_config(grid_size=20)

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
        theta = 2.0 * truth_model(combo).pickands([0.5, 0.5])
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
        mise, isb, iv = mise_decompose(curves, truth, w)
        assert abs(mise) < 1e-30 and abs(isb) < 1e-30 and abs(iv) < 1e-30

    def test_constant_offset_is_pure_bias(self):
        w = edge_grid(11)
        truth = np.full(11, 0.9)
        curves = np.tile(truth + 0.1, (4, 1))
        mise, isb, iv = mise_decompose(curves, truth, w)
        assert isb == pytest.approx(0.01, rel=1e-12)
        assert iv == pytest.approx(0.0, abs=1e-15)
        assert mise == pytest.approx(0.01, rel=1e-12)

    def test_alternating_offsets_are_pure_variance(self):
        w = edge_grid(11)
        truth = np.full(11, 0.9)
        curves = np.vstack([truth + 0.1, truth - 0.1, truth + 0.1, truth - 0.1])
        mise, isb, iv = mise_decompose(curves, truth, w)
        assert isb == pytest.approx(0.0, abs=1e-15)
        assert iv == pytest.approx(0.01, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            mise_decompose(np.ones((3, 5)), np.ones(4), edge_grid(4))

    def test_single_curve_rejected(self):
        with pytest.raises(DomainError):
            mise_decompose(np.ones((1, 5)), np.ones(5), edge_grid(5))


class TestRunExperiment:
    def test_additivity_at_grid_level(self):
        res = run_experiment(_small_config())
        for r in res:
            assert abs(r.mise - (r.isb + r.iv)) <= 1e-10 * max(1.0, r.mise)

    def test_forced_identical_replications_have_zero_variance(self):
        cfg = _small_config()
        combo = enumerate_combos(cfg)[0]
        (rep,) = harness._replicate_block(range(1), cfg, combo)
        w = edge_grid(cfg.grid_size)
        curves = np.vstack([rep["CFG-GPWM"][0], rep["CFG-GPWM"][0]])
        mise, isb, iv = mise_decompose(curves, truth_curve(combo, w), w)
        assert iv == 0.0
        assert mise == pytest.approx(isb, rel=1e-12)

    def test_truth_injection_gives_zero_mise(self):
        res = run_experiment(_small_config(), inject_truth=True)
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
        b = results_csv_text(run_experiment(replace(cfg, jobs=2)))
        c = results_csv_text(run_experiment(cfg))
        assert a == b == c

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

    def test_replicate_matches_composite_estimate(self):
        # the sweep and the one-pair API run the same fit: 3 psi x 20 reps x 6 pairs
        pairs = tuple(EstimatorPair(p, a) for a in ("GPWM", "ML") for p in ("P", "CFG", "MD"))
        cfg = _small_config(psis=(0.1, 0.55, 1.0), replications=20, pairs=pairs, grid_size=201)
        checked = mismatches = 0
        for combo in enumerate_combos(cfg):
            block = harness._replicate_block(range(cfg.replications), cfg, combo)
            for rep, fits in enumerate(block):
                stream = replication_stream(cfg.seed, combo, rep)
                sample = sample_experiment1(combo.psi_or_rho, combo.alpha, combo.n, stream)
                for pair in pairs:
                    curve, clamps, alpha_clamped = fits[pair.label]
                    config = CompositeConfig(
                        pick=pair.pick,
                        alpha_method=pair.alpha_method,
                        k=cfg.k,
                        grid_size=cfg.grid_size,
                        corrected=cfg.corrected,
                    )
                    checked += 1
                    try:
                        est = composite_estimate(sample, config)
                    except EstimationError:
                        mismatches += curve is not None
                        continue
                    same = (
                        curve is not None
                        and np.array_equal(curve, est.a_star)
                        and clamps == est.n_clamped
                        and alpha_clamped == est.alpha_clamped
                    )
                    mismatches += not same
        assert checked == 360
        assert mismatches == 0

    def test_failures_are_counted_and_excluded(self, monkeypatch):
        calls = {"n": 0}
        real = estimators.estimate_alpha

        def flaky(xi, method, k=5):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise EstimationError("forced", stage=method)
            return real(xi, method, k=k)

        monkeypatch.setattr(estimators, "estimate_alpha", flaky)
        cfg = _small_config(psis=(0.5,), replications=6, pairs=(EstimatorPair("CFG", "GPWM"),))
        res = run_experiment(cfg)
        assert res[0].failures == 2
        assert res[0].ise.size == 4
        assert res[0].flagged  # 2/6 > 20%

    def test_report_mentions_flagged_combos(self, monkeypatch):
        monkeypatch.setattr(
            estimators,
            "estimate_alpha",
            lambda xi, method, k=5: (_ for _ in ()).throw(EstimationError("x", stage=method)),
        )
        cfg = _small_config(psis=(0.5,), replications=4, pairs=(EstimatorPair("CFG", "GPWM"),))
        res = run_experiment(cfg)
        assert res[0].failures == 4
        assert "WARNING" in run_report_text(res)


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
                mean_curve=np.ones(3),
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
